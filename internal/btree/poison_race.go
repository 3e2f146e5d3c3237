//go:build race

package btree

// rowPoison makes a tree overwrite a retired row with 0xDB when it becomes
// free, so that under the race detector's test runs a view something kept
// past the attempt that took it reads as garbage until the bytes are reused:
// a decoded field, a content digest or a golden fails instead of working by
// luck (storage's arenaPoison is the same rule for arenas).
const rowPoison = true
