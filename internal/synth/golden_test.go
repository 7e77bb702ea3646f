package synth_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"seqatpg/internal/bench"
	"seqatpg/internal/fsm"
	"seqatpg/internal/logic"
	"seqatpg/internal/netlist"
	"seqatpg/internal/synth"
)

// goldenSynth pins the SHA-256 of every suite circuit's netlist (as
// netlist.Write prints it) and of its minimized two-level covers, with
// the unreachable-state don't-cares on and off. The minimizer's
// internals may change; its covers and the netlists built from them
// must not. The table was recorded from the list-of-values minimizer.
var goldenSynth = map[string][2]string{
	"dk16.ji.sd/dc=true":  {"d19b446f7b166104eb50e71e97d760355f65acdcc0a29d9e344cae518f96c766", "2d155f158799b71ba34ade95953d89000538c495389e47b680111591a6be298d"},
	"dk16.ji.sd/dc=false": {"ff27dc9e6bfc22abd876cceac2d033bce93c84f2bdbb7470b3a763cc14418f58", "7e284e6f10e87171fe2201efc63634c8c8cd50bb0c76e4dbfc7ab11663f3d889"},
	"pma.jo.sd/dc=true":   {"628ab67083d46b30cf668fe2f5c2a41849eeadbd2074d70f58ecccd17d04b37d", "fee0c4f93846ed5ac3d9550415913cc3f2b39031590abd9c1aa0678788a1a266"},
	"pma.jo.sd/dc=false":  {"e2bc617167f8916d878fe3e125e987dd2fe8fcfa19845b50a391f8c82dba2fcd", "e7843952bed785901db38225e97c6a5458e7f93a07cabd07354d683249ed091b"},
	"s510.jc.sd/dc=true":  {"c804caa69bea221422c11c57af2172bef1ee19a1829064ee882f782347373e21", "14c40db92aeafa097bd2c2d2e5cb83ea72e9be4ae0d6e4aa13774e5ad200dac4"},
	"s510.jc.sd/dc=false": {"5df2c556ccb0f1a5d2035d25d1a6545eaf5bd8ebf8f8281ac5a0a83c1249f3d3", "5b7035e51f1247b452195e54c7107ef5dc6e5279ae4a4adcd5e613446e92657d"},
	"s510.jc.sr/dc=true":  {"437eef564de755ee705304f23737d71a6737ca03f385f2f27067b3f917c8f9bb", "14c40db92aeafa097bd2c2d2e5cb83ea72e9be4ae0d6e4aa13774e5ad200dac4"},
	"s510.jc.sr/dc=false": {"7661302387ce505bc48c8efab8126f22b4627fdb3576d7f6841028d8c0e669d0", "5b7035e51f1247b452195e54c7107ef5dc6e5279ae4a4adcd5e613446e92657d"},
	"s510.ji.sd/dc=true":  {"d50402f83e377bb9d466aed147c3a0a483ee65b6219d5b99c8ae16cd64a72079", "5fef4000681ac4cd325ceaa4e12b79a3d8ea82820cf043a2d309a7de8242440a"},
	"s510.ji.sd/dc=false": {"d552fc239573fb36399d8b84bfffe7e6827b55bfb5d058493c36e28b53b7b4f2", "b593906d408787b218e77e8ffa97e545622bf206b4caf2fab6b40f91ba8a9c9d"},
	"s510.ji.sr/dc=true":  {"fd7fe74f3676c0c93f894a91ce8684e59300168053ef34d59b89bf707bc2463a", "5fef4000681ac4cd325ceaa4e12b79a3d8ea82820cf043a2d309a7de8242440a"},
	"s510.ji.sr/dc=false": {"1ea6be26e47e8946cc0de726436e88e0b2b8bf67c1c3f7250948ab20ae195a7e", "b593906d408787b218e77e8ffa97e545622bf206b4caf2fab6b40f91ba8a9c9d"},
	"s510.jo.sr/dc=true":  {"ab18dc68519fc4baff0a7ccf82896f0f75ad5f49a168b6065eadaa222ad9824c", "8a7d0ae3d00a3c7b9078ced43451d13faf7a93dcec1df7f1c04265e67ac04025"},
	"s510.jo.sr/dc=false": {"e6b8394d809977b77e1ad735a404c2b7f95638e270b88a1109dfac8b590eef18", "79ff254141ff0bf6a51f3f7658cb1db35086a2d68ea7f338daec82f68adaf8c4"},
	"s820.jc.sd/dc=true":  {"e9ee1deb29e97a76e68b61bfbe64e427b0a4127c8f90240b5586e5eb2f3fbba6", "d584783963850332edb6b7f7379afaea230f65284623b9f5e1a163c2e0d5413d"},
	"s820.jc.sd/dc=false": {"0bc71ee65fab1075321767d7fc76b9b9e43dd8951102189aef7842b86e703e2e", "d2b33551d0ecdb5ee12469703d157b6ea022969c792f1261712e05b93305adf5"},
	"s820.jc.sr/dc=true":  {"648861a98e91a4783197b13759f45b62a7ac2839cb9ed95b6e562f8ae615c4e5", "d584783963850332edb6b7f7379afaea230f65284623b9f5e1a163c2e0d5413d"},
	"s820.jc.sr/dc=false": {"e04d70e875d16ffca3efc02285025cb76c7b94e47ba33f595f8f92415734358f", "d2b33551d0ecdb5ee12469703d157b6ea022969c792f1261712e05b93305adf5"},
	"s820.ji.sr/dc=true":  {"9b519a152b96baede31063b626bb8113e946d426934284867d611395cd45e0e8", "434ecb357333e014cfed7c1745739a44888bf85ac1b3e9119efc0487b7c44526"},
	"s820.ji.sr/dc=false": {"52c730821aff1f3f7fd339a3a489c2d7fbcfb8fdf15f02179e6265c28b76f377", "3a52e50a078dc6491392f65950138ef5aea783e6de852984e5e0256fb6da6455"},
	"s820.jo.sd/dc=true":  {"fae822b1b22461dbd37ffe9eb1e8cddd60777dd9659872d505442af0de7f07bd", "7a7d967918091aae22a5ff0be2a30a870d6f7013e1b590c116b74e890211b6ba"},
	"s820.jo.sd/dc=false": {"0e46aeedde3f8757115099aed5739da2f1fcadf8ac72d92e918ea9d62ce10a3d", "14a39d0ace2da569547000d9d1473494716c77a461bfd811cdbc4e5228d139cc"},
	"s820.jo.sr/dc=true":  {"04821110ffef1ab8cc66065c671486cd5c40606b8f756f3d2957d5b0ee9891e5", "7a7d967918091aae22a5ff0be2a30a870d6f7013e1b590c116b74e890211b6ba"},
	"s820.jo.sr/dc=false": {"50ae6eacb2249bcd37594a77ca4ad738f408e9483f85ff24ed78e9dcfa19de78", "14a39d0ace2da569547000d9d1473494716c77a461bfd811cdbc4e5228d139cc"},
	"s832.jc.sr/dc=true":  {"db8408883368bf94d15488ede33f7d75199b4e5a5114de10bfb521611048bda5", "959fe809a326d37f54801b53fb049bb1f82493fc170b28388be65d3b171a1847"},
	"s832.jc.sr/dc=false": {"12340df09d1b504a2192f2c336c8eb65f24493be639446e9360f8bb26ab7c0fb", "c9f6e05f71b0aa7e1154208b5a0b6155b585fd31b97fbee78178e4823e6ab205"},
	"s832.jo.sr/dc=true":  {"36105fe0f5baf7aec9dbfd3cb25ae2978ed4c8f9a72e0a31c35548a16c2b5485", "01a021d98f0426f5c3f98038aeb67d33878db37556bcbe36a7445901cfdb7f01"},
	"s832.jo.sr/dc=false": {"5d59e88f4febe62c367dcb2adc62d7f179a2fe138c64b1ace4e4687674fa5a6c", "348b705cbaed596b1ffdcdeb0ed515d543f1b5050529bf490bfe0cc7a339a60a"},
	"scf.ji.sd/dc=true":   {"84e03b2badd253d3ed67a562e4b9110ad671273f142edef19bdbf4ce553c288f", "0eb46b5b5ff2c080ad120e53830c4c7b9a29ee708482b5ca29abf2138430bc5c"},
	"scf.ji.sd/dc=false":  {"974b9032cc6bf55ebc8c870629cfc45d6d20b548c5769a9ec5d0526e49ba191d", "dca35c96af68f93c7266c04bc4c24bfcadb0a5ffb344e18afd541b610bf57784"},
	"scf.jo.sd/dc=true":   {"b874fd21fe37b5d3844ce60e118f68eefb2dbd2c3ede9f97bbb0e239347b8c7d", "7078c6f2141094bb847daf87b71c5bc65a294c1f53d9fef7a57dfeb1e1318a56"},
	"scf.jo.sd/dc=false":  {"e9fc35fdf08f72f9e827c5b77d3c9996f7b3ae3ab86dd21433f33bd9813d65c0", "0f9f0aea987b156945a73036a145e28aad27ed9b15469d12d2e8a6f465a9f4f7"},
}

// suiteMachines builds every machine of the benchmark suite the way
// bench.Suite does: generate, then state-minimize.
func suiteMachines(tb testing.TB) map[string]*fsm.FSM {
	tb.Helper()
	out := map[string]*fsm.FSM{}
	for _, b := range fsm.Suite() {
		raw, err := fsm.Generate(b.Spec)
		if err != nil {
			tb.Fatal(err)
		}
		m, err := fsm.Minimize(raw)
		if err != nil {
			tb.Fatal(err)
		}
		out[b.Spec.Name] = m
	}
	return out
}

func coversText(r *synth.Result) string {
	var b bytes.Buffer
	for _, group := range [][]*logic.Cover{r.NextState, r.Outputs} {
		for _, f := range group {
			fmt.Fprintf(&b, "%s\n.\n", f)
		}
	}
	return b.String()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// synthHashes synthesizes m under spec and returns the SHA-256 of its
// netlist and of its minimized covers.
func synthHashes(t *testing.T, m *fsm.FSM, spec bench.PairSpec, useDC bool) [2]string {
	t.Helper()
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: spec.Alg, Script: spec.Script, UseUnreachableDC: useDC,
	})
	if err != nil {
		t.Fatalf("%s/dc=%v: %v", spec.Name(), useDC, err)
	}
	var net bytes.Buffer
	if err := netlist.Write(&net, r.Circuit); err != nil {
		t.Fatal(err)
	}
	return [2]string{sha(net.Bytes()), sha([]byte(coversText(r)))}
}

// TestSynthesizeGolden checks every suite circuit against goldenSynth
// under GOMAXPROCS 1 and 2: the per-output minimizations run on
// GOMAXPROCS goroutines, each writing its own slot, so neither the
// netlist nor the covers may depend on how many there are.
func TestSynthesizeGolden(t *testing.T) {
	machines := suiteMachines(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, spec := range bench.PairSpecs() {
			for _, useDC := range []bool{true, false} {
				key := fmt.Sprintf("%s/dc=%v", spec.Name(), useDC)
				got := synthHashes(t, machines[spec.FSM], spec, useDC)
				want, ok := goldenSynth[key]
				if !ok {
					t.Errorf("%q: {%q, %q}, (no golden entry)", key, got[0], got[1])
					continue
				}
				if got[0] != want[0] {
					t.Errorf("%s, %d procs: netlist hash %s, want %s", key, procs, got[0], want[0])
				}
				if got[1] != want[1] {
					t.Errorf("%s, %d procs: covers hash %s, want %s", key, procs, got[1], want[1])
				}
			}
		}
	}
}
