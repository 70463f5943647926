//go:build !race

package kmeans

const raceEnabled = false
