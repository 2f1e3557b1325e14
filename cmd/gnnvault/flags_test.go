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
// workspace budget, a size whose byte count overflows int64, an agreement
// floor outside [0, 1], and every other numeric flag below its floor (0
// where 0 means nothing, negative where 0 is a documented setting) each
// exit 2 at parse time, before any training, with a message naming the
// flag — on the single-enclave and the -shards paths alike.
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
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-batch", "0"}, "-batch"},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-ws-per-vault", "0"}, "-ws-per-vault"},
		{[]string{"-max-seeds", "0"}, "-max-seeds"},
		{[]string{"-fanout", "-1"}, "-fanout"},
		{[]string{"-hops", "-1"}, "-hops"},
		{[]string{"-round-digits", "-1"}, "-round-digits"},
		{[]string{"-topk", "-1"}, "-topk"},
		{[]string{"-rate-limit", "-1"}, "-rate-limit"},
		{[]string{"-rate-burst", "-1"}, "-rate-burst"},
		{[]string{"-query-budget", "-1"}, "-query-budget"},
		{[]string{"-deadline", "-1s"}, "-deadline"},
		{[]string{"-max-retries", "-1"}, "-max-retries"},
		{[]string{"-chaos", "-1"}, "-chaos"},
		{[]string{"-trace-buffer", "-1"}, "-trace-buffer"},
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

// TestServeShardFleetRuns: -shards N is one more registry entry behind the
// one serve path, so the flags that path takes run on a fleet too — the
// chaos stream settles back to bit-identical answers, scores are exposed
// from a fleet, and -deadline bounds a single vault's requests — each
// exiting 0.
func TestServeShardFleetRuns(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "cora", "-shards", "2", "-chaos", "4", "-clients", "2", "-requests", "10"},
			"post-recovery predictions bit-identical with pre-chaos baseline"},
		{[]string{"-shards", "2", "-expose-scores", "-clients", "1", "-requests", "2"}, "served 2 requests"},
		{[]string{"-shards", "1", "-deadline", "1s", "-clients", "1", "-requests", "2"}, "served 2 requests"},
	} {
		args := append([]string{"serve", "-epochs", "1"}, c.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "GNNVAULT_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("gnnvault %s: %v, want exit status 0\n%s", strings.Join(args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("gnnvault %s: output lacks %q:\n%s", strings.Join(args, " "), c.want, out)
		}
	}
}
