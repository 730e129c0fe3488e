//go:build race

package alloc

func init() { raceEnabled = true }
