//go:build !race

package mapred

const raceEnabled = false
