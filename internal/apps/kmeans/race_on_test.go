//go:build race

package kmeans

// raceEnabled reports that the race detector is on; sync.Pool then
// drops a share of Puts, so allocation guards do not hold.
const raceEnabled = true
