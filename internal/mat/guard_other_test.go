//go:build !linux

package mat

import "testing"

// guardedI8 has no guard pages off Linux: an exactly-sized allocation.
func guardedI8(_ testing.TB, n int, _ bool) []int8 { return make([]int8, n) }
