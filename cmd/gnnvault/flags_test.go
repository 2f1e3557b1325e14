package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the gnnvault command: with
// GNNVAULT_RUN_MAIN=1 in its environment the process is main() over its
// own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("GNNVAULT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeRejectsBadEPCFlags: an EPC capacity below 1 MB, a negative
// workspace budget, a size whose byte count overflows int64 and an
// agreement floor outside [0, 1] each exit 2 at parse time, before any
// training, with a message naming the flag — on the single-enclave and
// the -shards paths alike.
func TestServeRejectsBadEPCFlags(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"-epc-mb", "0"}, "-epc-mb"},
		{[]string{"-epc-mb", "-5"}, "-epc-mb"},
		{[]string{"-epc-mb", "9223372036854775807"}, "-epc-mb"},
		{[]string{"-epc-budget-mb", "-1"}, "-epc-budget-mb"},
		{[]string{"-epc-budget-mb", "8796093022208"}, "-epc-budget-mb"}, // 1<<43: << 20 wraps negative
		{[]string{"-min-agreement", "1.5"}, "-min-agreement"},
		{[]string{"-min-agreement", "-0.1"}, "-min-agreement"},
		{[]string{"-min-agreement", "NaN"}, "-min-agreement"},
	}
	for _, shards := range []string{"1", "2"} {
		for _, c := range cases {
			args := append([]string{"serve", "-shards", shards, "-epochs", "1", "-clients", "1", "-requests", "1"}, c.args...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "GNNVAULT_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("gnnvault %s: %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
				continue
			}
			if !strings.Contains(string(out), c.flag+" ") {
				t.Errorf("gnnvault %s: message does not name %s:\n%s", strings.Join(args, " "), c.flag, out)
			}
		}
	}
}
