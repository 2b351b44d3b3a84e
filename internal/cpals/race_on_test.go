//go:build race

package cpals

const raceEnabled = true
