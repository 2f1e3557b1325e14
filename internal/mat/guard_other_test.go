//go:build !linux

package mat

import "testing"

// guardedI8, guardedF64 and guardedI8At have no guard pages off Linux:
// exactly-sized allocations.
func guardedI8(_ testing.TB, n int, _ bool) []int8 { return make([]int8, n) }

func guardedF64(_ testing.TB, _, n int) []float64 { return make([]float64, n) }

func guardedI8At(_ testing.TB, _, n int) []int8 { return make([]int8, n) }
