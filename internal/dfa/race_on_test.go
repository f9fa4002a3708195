//go:build race

package dfa

const raceEnabled = true
