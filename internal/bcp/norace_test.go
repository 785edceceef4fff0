//go:build !race

package bcp

const raceEnabled = false
