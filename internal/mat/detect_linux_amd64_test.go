//go:build linux && amd64 && !purego

package mat

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestAVX2Detected holds detectAVX2 to what the kernel reports in
// /proc/cpuinfo: the assembly runs exactly when the CPU lists avx2, avx
// and popcnt (Linux drops avx from the list when the OS does not save the
// YMM state). A detection bug, or a host without AVX2, would otherwise
// turn every differential suite, and the benchmarks, into portable
// against portable without a failure.
func TestAVX2Detected(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	flags := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, list, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, fl := range strings.Fields(list) {
				flags[fl] = true
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(flags) == 0 {
		t.Fatal("/proc/cpuinfo has no flags line")
	}
	want := flags["avx2"] && flags["avx"] && flags["popcnt"]
	if got := detectAVX2(); got != want {
		t.Fatalf("detectAVX2() = %v, /proc/cpuinfo avx2=%v avx=%v popcnt=%v", got, flags["avx2"], flags["avx"], flags["popcnt"])
	}
	if !want {
		t.Log("no AVX2 on this host: the differential suites compare the portable kernels with themselves")
	}
}
