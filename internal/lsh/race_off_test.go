//go:build !race

package lsh

const raceEnabled = false
