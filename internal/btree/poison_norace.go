//go:build !race

package btree

const rowPoison = false
