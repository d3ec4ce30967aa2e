package cli

import (
	"flag"
	"math"
	"strings"
	"testing"
)

// TestParsePiconetRange pins the piconet-range grammar: half-open A:B with
// A >= 0 and B > A; everything else is rejected.
func TestParsePiconetRange(t *testing.T) {
	cases := []struct {
		in      string
		lo, hi  int
		wantErr string // "" = must parse
	}{
		{in: "0:4", lo: 0, hi: 4},
		{in: "2:3", lo: 2, hi: 3},
		{in: "10:64", lo: 10, hi: 64},
		{in: "", wantErr: "want A:B"},
		{in: "4", wantErr: "want A:B"},
		{in: "a:b", wantErr: "want A:B"},
		{in: "4:2", wantErr: "is empty or negative"},
		{in: "3:3", wantErr: "is empty or negative"},
		{in: "-1:2", wantErr: "is empty or negative"},
	}
	for _, tc := range cases {
		var r Range
		err := r.Set(tc.in)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Set(%q) = %v, want [%d:%d)", tc.in, err, tc.lo, tc.hi)
			} else if r.Lo != tc.lo || r.Hi != tc.hi {
				t.Errorf("Set(%q) = [%d:%d), want [%d:%d)", tc.in, r.Lo, r.Hi, tc.lo, tc.hi)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Set(%q) = %v, want an error containing %q", tc.in, err, tc.wantErr)
		}
		if r != (Range{}) {
			t.Errorf("Set(%q) failed but left the range at %v", tc.in, &r)
		}
	}
}

// TestShapeCheck pins the shape checks: a probe sample outside (0, 1] or
// NaN, a hold, a redundancy or a piconet count below 1 is rejected with a
// message naming the flag — each of these used to reach the engine, which
// reads it as unset and runs its default.
func TestShapeCheck(t *testing.T) {
	ok := Shape{Piconets: 2, Bridges: 1, Redundancy: 1, Hold: 10, ProbeSample: 1}
	cases := []struct {
		edit    func(*Shape)
		wantErr string // "" = must pass
	}{
		{edit: func(*Shape) {}},
		{edit: func(s *Shape) { s.ProbeSample = 0.25 }},
		{edit: func(s *Shape) { s.ProbeSample = 0 }, wantErr: "-probe-sample 0 outside (0, 1]"},
		{edit: func(s *Shape) { s.ProbeSample = -0.5 }, wantErr: "-probe-sample -0.5 outside (0, 1]"},
		{edit: func(s *Shape) { s.ProbeSample = 1.5 }, wantErr: "-probe-sample 1.5 outside (0, 1]"},
		{edit: func(s *Shape) { s.ProbeSample = math.NaN() }, wantErr: "-probe-sample is NaN"},
		{edit: func(s *Shape) { s.Hold = 0 }, wantErr: "-hold 0 must be at least 1"},
		{edit: func(s *Shape) { s.Redundancy = 0 }, wantErr: "-redundancy 0 must be at least 1"},
		{edit: func(s *Shape) { s.Redundancy = -3 }, wantErr: "-redundancy -3 must be at least 1"},
		{edit: func(s *Shape) { s.Piconets = 0 }, wantErr: "-piconets 0 must be at least 1"},
	}
	for _, tc := range cases {
		s := ok
		tc.edit(&s)
		err := s.Check()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v: %v", s, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%+v = %v, want an error containing %q", s, err, tc.wantErr)
		}
	}
}

// TestRegisterDefaults pins the defaults every binary shares: a
// registration that parses no flags holds them and passes its checks.
func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c Campaign
	var s Shape
	c.Register(fs)
	s.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (Campaign{Seed: 1, Days: 4, Scenario: 3}); c != want {
		t.Errorf("campaign defaults %+v, want %+v", c, want)
	}
	if want := (Shape{Piconets: 2, Bridges: 1, Redundancy: 1, Hold: 10, ProbeSample: 1}); s != want {
		t.Errorf("shape defaults %+v, want %+v", s, want)
	}
	if err := c.Check(); err != nil {
		t.Error(err)
	}
	if err := s.Check(); err != nil {
		t.Error(err)
	}
}

// TestModesCheck pins the mode rule: the first unmet requirement of the
// first set flag, in lexical order, is the error; an unset flag and a met
// requirement are no error; NeedShape covers exactly the flags Shape
// registers.
func TestModesCheck(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		new(Shape).Register(fs)
		fs.Bool("a", false, "")
		fs.Bool("b", false, "")
		return fs
	}
	m := Modes{}
	m.Need("a", Req{OK: true, Why: "never"}, Req{OK: false, Why: "needs x"}, Req{OK: false, Why: "needs y"})
	m.Need("b", Req{OK: false, Why: "needs z"})
	m.NeedShape(Req{OK: false, Why: "needs -scatternet"})
	for args, want := range map[string]string{
		"":                    "",
		"-b -a":               "-a needs x",
		"-b":                  "-b needs z",
		"-hold 3 -piconets 2": "-hold needs -scatternet",
		"-probe-sample 0.5":   "-probe-sample needs -scatternet",
		"-topology ring":      "-topology needs -scatternet",
	} {
		fs := newFS()
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := m.Check(fs); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%q: %q, want %q", args, got, want)
		}
	}
	if len(shapeFlags) != 6 {
		t.Errorf("shape flags %v, want the six Shape registers", shapeFlags)
	}
	m.Need("a", Req{OK: true})
	fs := newFS()
	if err := fs.Parse([]string{"-a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(fs); err != nil {
		t.Errorf("a met requirement still rejects: %v", err)
	}
}

// TestSetSpec pins the SPEC grammar: each key=value pair sets the flag of
// the same name, a missing '=' or unknown key fails, a value fails as the
// flag would, and every required key must be given.
func TestSetSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // "" = must pass
	}{
		{spec: "key=a,seed=7,days=30,hold=5,range=2:4"},
		{spec: "key=a,seed=7,days=x", wantErr: `field "days": parse error`},
		{spec: "key=a,seed=7,range=4:2", wantErr: `field "range": "4:2" is empty or negative`},
		{spec: "key=a,seed=7,color=red", wantErr: `unknown field "color"`},
		{spec: "key=a,seed", wantErr: `"seed" is not key=value`},
		{spec: "seed=7", wantErr: "key=, seed= and range= are required"},
		{spec: "key=a,seed=7", wantErr: "key=, seed= and range= are required"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var c Campaign
		var s Shape
		var r Range
		c.Register(fs)
		s.Register(fs)
		fs.String("key", "", "")
		fs.Var(&r, "range", "")
		err := SetSpec(fs, tc.spec, "key", "seed", "range")
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%q: %v", tc.spec, err)
			} else if c.Seed != 7 || c.Days != 30 || s.Hold != 5 || r != (Range{2, 4}) {
				t.Errorf("%q set %+v %+v %+v", tc.spec, c, s, r)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q = %v, want an error containing %q", tc.spec, err, tc.wantErr)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.String("key", "", "")
	fs.String("seed", "", "")
	if err := SetSpec(fs, "seed=1", "key", "seed"); err == nil || err.Error() != "key= and seed= are required" {
		t.Errorf("two required keys: %v", err)
	}
}
