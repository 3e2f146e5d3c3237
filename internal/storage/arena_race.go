//go:build race

package storage

// arenaPoison makes Arena.Reset overwrite the bytes it frees with 0xDB, so
// that under the race detector's test runs a key or row something kept past
// its attempt reads as garbage: the tree that stored it fails Validate, a
// content digest or a golden, instead of working by luck until the arena
// happens to be refilled.
const arenaPoison = true
