package scenario

import (
	"reflect"
	"testing"

	"hwatch/internal/tcp"
	"hwatch/internal/topo"
)

// shimEnvs are the shim inputs the two kinds build: the dumbbell's base
// RTT alone, and the testbed's base RTT with its SYN-ACK pacing.
func shimEnvs() map[string]Env {
	tb := PaperTestbed()
	return map[string]Env{
		"dumbbell": {BaseRTT: 4 * PaperDumbbell(25, 25).LinkDelay},
		"testbed": {
			BaseRTT:    (&topo.LeafSpine{}).BaseRTT(topo.LeafSpineConfig{EdgeDelay: tb.LinkDelay, CoreDelay: tb.LinkDelay}),
			FabricShim: testbedPacing(tb),
		},
	}
}

// TestShimParamsSetExactlyTheirField: a ShimParams field set alone moves
// the core.Config field of the same name to its value and no other
// field, over the dumbbell's and the testbed's shim defaults alike.
func TestShimParamsSetExactlyTheirField(t *testing.T) {
	guest := tcp.DefaultConfig()
	st := reflect.TypeOf(ShimParams{})
	for kind, env := range shimEnvs() {
		base := reflect.ValueOf(shimConfig(env, guest))
		for i := 0; i < st.NumField(); i++ {
			name := st.Field(i).Name
			def := base.FieldByName(name)
			if !def.IsValid() || st.Field(i).Type != reflect.PointerTo(def.Type()) {
				t.Fatalf("ShimParams.%s is not a pointer to a core.Config field", name)
			}
			// A value other than the kind's default.
			want := reflect.New(def.Type())
			switch def.Kind() {
			case reflect.Bool:
				want.Elem().SetBool(!def.Bool())
			case reflect.Int, reflect.Int64:
				want.Elem().SetInt(def.Int() + 1)
			case reflect.Float64:
				want.Elem().SetFloat(def.Float() + 0.25)
			default:
				t.Fatalf("ShimParams.%s: no test value for %v", name, def.Kind())
			}
			e := env
			reflect.ValueOf(&e.Shim).Elem().Field(i).Set(want)
			got := reflect.ValueOf(shimConfig(e, guest))
			for j := 0; j < got.NumField(); j++ {
				field := got.Type().Field(j).Name
				moved := !reflect.DeepEqual(got.Field(j).Interface(), base.Field(j).Interface())
				if moved != (field == name) {
					t.Errorf("%s: setting %s moved %s: %v", kind, name, field, moved)
				}
			}
			if g := got.FieldByName(name).Interface(); g != want.Elem().Interface() {
				t.Errorf("%s: %s = %v, want %v", kind, name, g, want.Elem().Interface())
			}
		}
	}
}

// TestShimHardeningKeepsExplicitSettings: a staged fault timeline arms
// the degradation fallbacks on both kinds, the testbed keeps its pacing,
// and an explicit Spec.Shim field still wins over both.
func TestShimHardeningKeepsExplicitSettings(t *testing.T) {
	guest := tcp.DefaultConfig()
	tbPace := testbedPacing(PaperTestbed())
	for kind, env := range shimEnvs() {
		env.Hardened = true
		cfg := shimConfig(env, guest)
		if !cfg.ProbeLossFallback || cfg.EcnDarkEpochs != 8 {
			t.Errorf("%s: hardening not applied: fallback=%v dark=%d", kind, cfg.ProbeLossFallback, cfg.EcnDarkEpochs)
		}
		if kind == "testbed" && (cfg.SynAckBurst != *tbPace.SynAckBurst || cfg.RefillEvery != *tbPace.RefillEvery) {
			t.Errorf("testbed: pacing %d/%d, want %d/%d", cfg.SynAckBurst, cfg.RefillEvery, *tbPace.SynAckBurst, *tbPace.RefillEvery)
		}

		off, one := 0, 1
		env.Shim = ShimParams{SynAckBurst: &off, ProbeCount: &one}
		cfg = shimConfig(env, guest)
		if cfg.SynAckBurst != 0 || cfg.ProbeCount != 1 {
			t.Errorf("%s: explicit settings lost: burst=%d probes=%d", kind, cfg.SynAckBurst, cfg.ProbeCount)
		}
		if !cfg.ProbeLossFallback || cfg.EcnDarkEpochs != 8 {
			t.Errorf("%s: hardening lost under explicit settings", kind)
		}
	}
}
