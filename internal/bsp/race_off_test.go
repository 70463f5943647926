//go:build !race

package bsp

const raceEnabled = false
