//go:build !race

package dfa

const raceEnabled = false
