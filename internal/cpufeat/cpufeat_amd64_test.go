package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo holds the CPUID probe to the kernel's own view
// of the CPU: each switch is true exactly when /proc/cpuinfo lists every
// flag its kernel needs. Linux drops the AVX-512 flags where the OS does
// not save their register state, so the XCR0 check is covered too. A
// wrong CPUID bit constant fails here instead of selecting the wrong path.
func TestProbeMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare the probe with: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		name, list, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	scan, transpose, resolve := probe()
	for _, c := range []struct {
		name        string
		probed, set bool
		needs       []string
	}{
		{"scan", scan, ScanKernel, []string{"avx512f", "avx512dq"}},
		{"transpose", transpose, TransposeKernel, []string{"avx512f", "avx512vbmi", "gfni"}},
		{"resolve", resolve, ResolveKernel, []string{"avx512f", "avx512dq", "avx512cd", "avx512vl", "avx512_vpopcntdq"}},
	} {
		listed := true
		for _, f := range c.needs {
			listed = listed && flags[f]
		}
		if c.probed != listed || c.set != listed {
			t.Errorf("%s: probe says %v and the switch %v, but /proc/cpuinfo lists all of %v: %v",
				c.name, c.probed, c.set, c.needs, listed)
		}
	}
}
