//go:build !linux

package mat

import "testing"

// guardedI8 and guardedF64 have no guard pages off Linux: exactly-sized
// allocations.
func guardedI8(_ testing.TB, n int, _ bool) []int8 { return make([]int8, n) }

func guardedF64(_ testing.TB, _, n int) []float64 { return make([]float64, n) }
