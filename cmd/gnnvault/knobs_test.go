package main

import (
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/knob"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
)

// TestKnobTablesRefuseOutOfRange runs every knob table: each config
// type's zero value validates and takes the documented defaults, and for
// every numeric row a value below its minimum, above its maximum and (for
// a float) NaN is refused as a *knob.RangeError naming the type, the field
// and the flag — by the type's Validate, by every constructor that takes
// the type (a panic: programmer error), and by the flag when it is set.
func TestKnobTablesRefuseOutOfRange(t *testing.T) {
	// Both constructors take their zero config.
	reg := registry.New(nil, registry.Config{})
	defer reg.Close()
	srv := serve.NewMulti(reg, serve.Config{})
	defer srv.Close()

	testTable(t, serve.ConfigKnobs, serve.Config.Validate,
		serve.Config{Workers: 2, MaxBatch: 8, RecoveryBackoff: 5 * time.Millisecond, Seed: 1},
		func(c serve.Config) { serve.NewMulti(reg, c).Close() },
		func(c serve.Config) { serve.NewSharded(nil, c) }) //nolint:errcheck // panics first
	testTable(t, serve.RateLimitKnobs, serve.RateLimit.Validate, serve.RateLimit{},
		func(c serve.RateLimit) { serve.NewAPI(srv, reg, serve.APIConfig{Limit: &c}) })
	testTable(t, registry.ConfigKnobs, registry.Config.Validate, registry.Config{WorkspacesPerVault: 2, Recorder: obs.Nop},
		func(c registry.Config) { registry.New(nil, c).Close() })
	testTable(t, registry.NodeQueryKnobs, registry.NodeQueryConfig.Validate, registry.NodeQueryConfig{Hops: 2, MaxSeeds: 16},
		func(c registry.NodeQueryConfig) { registry.New(nil, registry.Config{NodeQuery: &c}).Close() },
		func(c registry.NodeQueryConfig) { serve.NewSharded(nil, serve.Config{NodeQuery: &c}) }) //nolint:errcheck // panics first
	testTable(t, core.PlanKnobs, core.PlanConfig.Validate, core.PlanConfig{MinAgreement: 0.99, Recorder: obs.Nop},
		func(c core.PlanConfig) { registry.New(nil, registry.Config{Plan: c}).Close() },
		func(c core.PlanConfig) { serve.NewSharded(nil, serve.Config{Plan: c}) }) //nolint:errcheck // panics first
	testTable(t, serveOptKnobs, serveOptKnobs.Check,
		serveOpts{Dataset: "cora", Design: "parallel", Sub: "knn", Epochs: 100, Seed: 1, Shards: 1, EPCMB: 96, Clients: 8, Requests: 25})
}

// testTable checks one table (see TestKnobTablesRefuseOutOfRange): want is
// the zero config with its defaults, and each of refuse must panic on an
// out-of-range config.
func testTable[C any](t *testing.T, tab knob.Table[C], validate func(C) error, want C, refuse ...func(C)) {
	var zero C
	typ := reflect.TypeFor[C]().String()
	if err := validate(zero); err != nil {
		t.Errorf("%s zero value: %v", typ, err)
	}
	if tab.Defaults(&zero); !reflect.DeepEqual(zero, want) {
		t.Errorf("%s defaults %+v, want %+v", typ, zero, want)
	}
	for _, r := range tab {
		var bad []float64
		kind := reflect.ValueOf(&zero).Elem().FieldByName(r.Field).Kind()
		switch kind {
		case reflect.Int, reflect.Int64, reflect.Uint8, reflect.Uint64, reflect.Float64:
		case reflect.Bool, reflect.String, reflect.Interface:
			continue
		default:
			t.Fatalf("%s.%s: no bad values for a %s", typ, r.Field, kind)
		}
		if below := r.Range.Min - 1; !math.IsInf(below, -1) && (below >= 0 || kind == reflect.Int || kind == reflect.Int64 || kind == reflect.Float64) {
			if below == 0 && r.Default != nil {
				below = -1 // a zero stands for the default
			}
			bad = append(bad, below)
		}
		if !math.IsInf(r.Range.Max, 1) {
			bad = append(bad, r.Range.Max+1)
		}
		if kind == reflect.Float64 {
			bad = append(bad, math.NaN())
		}
		for _, x := range bad {
			var cfg C
			f := reflect.ValueOf(&cfg).Elem().FieldByName(r.Field)
			switch kind {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(x))
			case reflect.Uint8, reflect.Uint64:
				f.SetUint(uint64(x))
			default:
				f.SetFloat(x)
			}
			what := typ + "." + r.Field + " = " + fmtValue(f)
			names := func(err error) bool {
				var re *knob.RangeError
				return errors.As(err, &re) && re.Type == typ && re.Field == r.Field && re.Flag == r.Flag
			}
			if err := validate(cfg); !names(err) {
				t.Errorf("%s: Validate = %v, want a *knob.RangeError naming it", what, err)
			}
			for i, build := range refuse {
				func() {
					defer func() {
						if err, _ := recover().(error); !names(err) {
							t.Errorf("%s: constructor %d panicked with %v, want its *knob.RangeError", what, i, err)
						}
					}()
					build(cfg)
				}()
			}
			if r.Flag == "" || f.Addr().Type().Implements(reflect.TypeFor[flag.Value]()) {
				continue
			}
			fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
			var into C
			tab.Register(fs, &into)
			if err := fs.Set(r.Flag, fmtValue(f)); !names(err) {
				t.Errorf("%s: -%s %s = %v, want a *knob.RangeError naming it", what, r.Flag, fmtValue(f), err)
			}
		}
	}
}

// fmtValue renders a numeric field as its flag would be given it.
func fmtValue(f reflect.Value) string {
	switch f.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(f.Float(), 'g', -1, 64)
	case reflect.Uint8, reflect.Uint64:
		return strconv.FormatUint(f.Uint(), 10)
	}
	if d, ok := f.Interface().(time.Duration); ok {
		return d.String()
	}
	return strconv.FormatInt(f.Int(), 10)
}

// readmeFlagRow matches a row of the README's serve flag table: its flag
// cell (group 1) and its default cell (group 2).
var readmeFlagRow = regexp.MustCompile("(?m)^\\| (`-[^|]*)\\| ([^|]*)\\|")

// TestReadmeFlagTable holds the README's serve flag table to the flag set
// cmdServe registers: a row for every flag and a flag for every row, and
// each row's default cell — its backticked values, or "off" for a false
// bool or an empty string, one per flag of a shared row — is the flag's
// default once parsed.
func TestReadmeFlagTable(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := serveFlags()
	documented := map[string]bool{}
	for _, m := range readmeFlagRow.FindAllStringSubmatch(string(data), -1) {
		flags := regexp.MustCompile("`-([a-z0-9-]+)`").FindAllStringSubmatch(m[1], -1)
		defaults := strings.Split(strings.TrimSpace(m[2]), " / ")
		if len(defaults) != len(flags) {
			t.Errorf("README row %q: %d default cells for %d flags", m[0], len(defaults), len(flags))
			continue
		}
		for i, fm := range flags {
			name := fm[1]
			documented[name] = true
			fl := fs.Lookup(name)
			if fl == nil {
				t.Errorf("README flag table row -%s names no serve flag", name)
				continue
			}
			cell := defaults[i]
			if v := regexp.MustCompile("^`([^`]*)`").FindStringSubmatch(cell); v != nil {
				cell = v[1]
			} else if strings.HasPrefix(cell, "off") {
				cell = map[bool]string{true: "false", false: ""}[fl.DefValue == "false"]
			} else {
				t.Errorf("README row -%s: default cell %q is neither a backticked value nor off", name, defaults[i])
				continue
			}
			// Parse the documented default into a fresh flag set: the
			// flag's own rendering of it must be its default.
			fresh, _ := serveFlags()
			if err := fresh.Set(name, cell); err != nil {
				t.Errorf("README row -%s: default %q does not parse: %v", name, cell, err)
			} else if got := fresh.Lookup(name).Value.String(); got != fl.DefValue {
				t.Errorf("README row -%s documents default %q (%s), the flag defaults to %s", name, cell, got, fl.DefValue)
			}
		}
	}
	fs.VisitAll(func(fl *flag.Flag) {
		if !documented[fl.Name] {
			t.Errorf("serve flag -%s has no row in the README flag table", fl.Name)
		}
	})
}
