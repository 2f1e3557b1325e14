// Package knob declares the settable values of a config struct once: a
// Table holds one Row per knob, and everything else derives from it. Check
// validates a config (each config type's Validate), Defaults gives its zero
// fields their defaults, and Register binds a flag.FlagSet straight into
// its fields, refusing an out-of-range flag value as it parses. Every
// refusal, whichever path finds it, is one *RangeError.
package knob

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"
)

// Range is the closed interval a numeric knob may be set to; an unbounded
// side is infinite.
type Range struct{ Min, Max float64 }

// AtLeast is [min, +Inf].
func AtLeast(min float64) Range { return Range{min, math.Inf(1)} }

// Any admits every value of the field's type.
var Any = Range{math.Inf(-1), math.Inf(1)}

// Row declares one knob: a field of the config struct.
type Row struct {
	Field string // the Go field name
	Flag  string // the command-line flag bound to it; "" for none
	Unit  string // "B", "MB", "ns", "labels/s"; "" for a count or a choice
	// Range is what a numeric field may be set to; a config value outside
	// it passes only as a zero standing for Default.
	Range   Range
	Zero    string // what a zero means where it is a setting of its own ("off")
	Default any    // what Defaults gives a zero field, and its flag shows; nil for none
	Doc     string // the flag's usage line
}

// Table declares the knobs of the config type C.
type Table[C any] []Row

// RangeError refuses a knob value outside its Range.
type RangeError struct {
	Type, Field, Flag string // "serve.Config", "Workers", "workers" ("" for none)
	Value, Range      string // the refused value; the legal range, with its unit
}

// Error names the flag (when there is one), the value, the range and the
// config field.
func (e *RangeError) Error() string {
	if e.Flag != "" {
		return fmt.Sprintf("-%s %s outside %s (%s.%s)", e.Flag, e.Value, e.Range, e.Type, e.Field)
	}
	return fmt.Sprintf("%s.%s %s outside %s", e.Type, e.Field, e.Value, e.Range)
}

// Check validates cfg: every numeric knob lies in its Range, or is a zero
// standing for its Default.
func (t Table[C]) Check(cfg C) error {
	v := reflect.ValueOf(cfg)
	for i, r := range t {
		if f := v.FieldByName(r.Field); r.Default == nil || !f.IsZero() {
			if err := t.inRange(i, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Defaults gives every zero field of *cfg that has a Default its default.
func (t Table[C]) Defaults(cfg *C) {
	v := reflect.ValueOf(cfg).Elem()
	for _, r := range t {
		r.setDefault(v.FieldByName(r.Field))
	}
}

// setDefault gives the row's field f its Default if it has one and f is
// zero.
func (r Row) setDefault(f reflect.Value) {
	if r.Default != nil && f.IsZero() {
		f.Set(reflect.ValueOf(r.Default).Convert(f.Type()))
	}
}

// Register defines a flag on fs for every row with one, bound to the row's
// field of *cfg and defaulting to its value, or to the row's Default when
// the field is zero. A numeric flag set outside its Range fails the parse
// with a *RangeError — a zero too, where it would only stand for the
// default the flag shows.
func (t Table[C]) Register(fs *flag.FlagSet, cfg *C) {
	v := reflect.ValueOf(cfg).Elem()
	for i, r := range t {
		if r.Flag == "" {
			continue
		}
		f, usage := v.FieldByName(r.Field), r.Doc
		r.setDefault(f)
		if r.Zero != "" {
			usage += " (0 = " + r.Zero + ")"
		}
		switch p := f.Addr().Interface().(type) {
		case flag.Value:
			fs.Var(p, r.Flag, usage)
		case *bool:
			fs.BoolVar(p, r.Flag, *p, usage)
		case *string:
			fs.StringVar(p, r.Flag, *p, usage)
		case *int:
			fs.IntVar(p, r.Flag, *p, usage)
		case *int64:
			fs.Int64Var(p, r.Flag, *p, usage)
		case *float64:
			fs.Float64Var(p, r.Flag, *p, usage)
		case *time.Duration:
			fs.DurationVar(p, r.Flag, *p, usage)
		default:
			panic(fmt.Sprintf("knob: no flag for %s.%s, a %s", reflect.TypeFor[C](), r.Field, f.Type()))
		}
		if fl := fs.Lookup(r.Flag); f.CanInt() || f.CanFloat() {
			fl.Value = &ranged{fl.Value, func() error { return t.inRange(i, f) }}
		}
	}
}

// ranged range-checks a numeric flag once its own Set has parsed the value
// into the field.
type ranged struct {
	flag.Value
	check func() error
}

// Set parses s into the field, then refuses it outside the row's Range.
func (r *ranged) Set(s string) error {
	if err := r.Value.Set(s); err != nil {
		return err
	}
	return r.check()
}

// String renders the field; flag.PrintDefaults also asks a zero ranged.
func (r *ranged) String() string {
	if r.Value == nil {
		return "0"
	}
	return r.Value.String()
}

// inRange refuses row i's field f when it is numeric and outside the
// row's Range.
func (t Table[C]) inRange(i int, f reflect.Value) error {
	var x float64
	switch {
	case f.CanInt():
		x = float64(f.Int())
	case f.CanUint():
		x = float64(f.Uint())
	case f.CanFloat():
		x = f.Float()
	default:
		return nil
	}
	r := t[i]
	if x >= r.Range.Min && x <= r.Range.Max {
		return nil
	}
	num := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	rng := "[" + num(r.Range.Min) + ", " + num(r.Range.Max) + "]"
	if r.Unit != "" {
		rng += " " + r.Unit
	}
	return &RangeError{Type: reflect.TypeFor[C]().String(), Field: r.Field, Flag: r.Flag, Value: fmt.Sprint(f.Interface()), Range: rng}
}
