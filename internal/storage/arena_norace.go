//go:build !race

package storage

const arenaPoison = false
