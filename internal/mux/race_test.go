//go:build race

package mux

func init() { raceEnabled = true }
