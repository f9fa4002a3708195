//go:build race

package sunder

const raceEnabled = true
