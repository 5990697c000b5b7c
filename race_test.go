//go:build race

package ankerdb

func init() { raceEnabled = true }
