//go:build !race

package pagerank

const raceEnabled = false
