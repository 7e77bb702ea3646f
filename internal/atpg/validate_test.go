package atpg

import (
	"reflect"
	"strings"
	"testing"
)

func TestConfigValidateRejectsBadKnobs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative fault budget", func(c *Config) { c.FaultBudget = -1 }, "FaultBudget"},
		{"negative total budget", func(c *Config) { c.TotalBudget = -5 }, "TotalBudget"},
		{"zero max frames", func(c *Config) { c.MaxFrames = 0 }, "MaxFrames"},
		{"negative max frames", func(c *Config) { c.MaxFrames = -2 }, "MaxFrames"},
		{"negative back steps", func(c *Config) { c.MaxBackSteps = -1 }, "MaxBackSteps"},
		{"negative backtrack limit", func(c *Config) { c.BacktrackLimit = -1 }, "BacktrackLimit"},
		{"negative random sequences", func(c *Config) { c.RandomSequences = -1 }, "RandomSequences"},
		{"negative random length", func(c *Config) { c.RandomLength = -1 }, "RandomLength"},
		{"no-drop with random phase", func(c *Config) { c.NoFaultDrop = true; c.RandomSequences = 2; c.RandomLength = 4 }, "NoFaultDrop"},
	}
	for _, tc := range cases {
		cfg := defaultCfg()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
		// New must refuse the same configuration.
		if _, err := New(synthC(t, 5, 3), cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}

func TestConfigValidateAcceptsZeroOptionalKnobs(t *testing.T) {
	cfg := defaultCfg()
	cfg.BacktrackLimit = 0 // unlimited, bounded by the effort budget
	cfg.MaxBackSteps = 0   // defaulted by New
	cfg.TotalBudget = 0    // unlimited
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a legal config: %v", err)
	}
}

// TestFlushCyclesCoercion documents the one silent coercion: a
// FlushCycles below 1 becomes exactly one reset-hold cycle, so every
// engine has a non-empty flush prefix.
func TestFlushCyclesCoercion(t *testing.T) {
	c := synthC(t, 5, 3)
	for _, fc := range []int{-3, 0, 1} {
		cfg := defaultCfg()
		cfg.FlushCycles = fc
		e, err := New(c, cfg)
		if err != nil {
			t.Fatalf("FlushCycles=%d rejected: %v", fc, err)
		}
		if e.cfg.FlushCycles != 1 {
			t.Errorf("FlushCycles=%d coerced to %d, want 1", fc, e.cfg.FlushCycles)
		}
		if len(e.flushPrefix) != 1 {
			t.Errorf("FlushCycles=%d produced a %d-cycle flush prefix, want 1", fc, len(e.flushPrefix))
		}
	}
	cfg := defaultCfg()
	cfg.FlushCycles = 3
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.flushPrefix) != 3 {
		t.Errorf("FlushCycles=3 produced a %d-cycle flush prefix", len(e.flushPrefix))
	}
}

// TestConfigCanonical pins the identity encoding campaign fingerprints
// and result-cache digests hash: every bound field moves it, no unbound
// field does, the exclusion list names real fields, and a Name cannot
// fake a field boundary.
func TestConfigCanonical(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for name := range unboundFields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unboundFields names %s, which is not a Config field", name)
		}
	}
	base := Config{}
	for _, f := range reflect.VisibleFields(typ) {
		cfg := base
		fv := reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int64:
			fv.SetInt(1)
		case reflect.String:
			fv.SetString("x")
		default:
			t.Fatalf("Config.%s has kind %s, which the encoding test does not cover", f.Name, fv.Kind())
		}
		moved := cfg.Canonical() != base.Canonical()
		if moved == unboundFields[f.Name] {
			t.Errorf("setting Config.%s: encoding moved = %v, want %v", f.Name, moved, !unboundFields[f.Name])
		}
	}

	// Seed sorts after Name, so an unquoted Name could append it.
	seeded := Config{Name: "x", Seed: 3}
	for _, name := range []string{"x Seed=3", "x\nSeed=3", `x" Seed=3`, "x=\" Seed=3 \""} {
		fake := Config{Name: name}
		if fake.Canonical() == seeded.Canonical() {
			t.Errorf("Name %q encodes like a Seed field: %s", name, fake.Canonical())
		}
		if strings.Contains(fake.Canonical(), "\n") {
			t.Errorf("Name %q put a raw newline in the encoding", name)
		}
	}
}
