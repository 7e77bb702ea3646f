package service

import (
	"encoding/json"
	"testing"
)

// FuzzSpec throws arbitrary bytes at the service's job decoders — the
// mirror of campaign's FuzzCheckpoint for the other half of the job
// store. Everything the server reads back after a crash (job.json,
// terminal.json, result.json) and everything clients POST (a Spec)
// flows through these paths, and a crash can leave literally any bytes
// in them: decode plus Prepare must reject garbage with an error,
// never a panic.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"id":"j000001","spec":{"netlist":"INPUT(a)\nOUTPUT(z)\nz = DFF(a)\n"},"created":"2026-01-02T15:04:05Z"}`))
	f.Add([]byte(`{"id":"j000002","spec":{"name":"x","netlist":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","format":"bench","engine":"sest","fault_budget":100,"retries":2,"shards":3,"max_faults":9,"flush_cycles":1,"seed":5}}`))
	f.Add([]byte(`{"spec":{"netlist":"","shards":-1}}`))
	f.Add([]byte(`{"spec":{"netlist":"INPUT(a)","format":"verilog"}}`))
	f.Add([]byte(`{"state":"done","finished":"2026-01-02T15:04:05Z"}`))
	f.Add([]byte(`{"state":"running"}`))
	f.Add([]byte(`{"total":10,"detected":9,"fc":0.9,"degraded":true,"checkpoint_failures":3}`))
	f.Add([]byte(`not json`))
	f.Add([]byte("\x00\xff{"))
	f.Add([]byte(`{"id":1e999}`))
	// Shard counts far past MaxShards: rejected before any partition
	// is allocated, not an out-of-memory crash.
	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = DFF(a)\n","shards":17179869184}`))
	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = DFF(a)\n","shard":{"index":0,"count":17179869184}}`))
	// Retry counts past MaxRetries: rejected before any pass runs.
	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = DFF(a)\n","retries":1000000}`))
	// Reset prefixes past MaxFlushCycles: rejected before the engine
	// simulates a single cycle.
	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = DFF(a)\n","flush_cycles":1000000000}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // a netlist this size only slows the fuzzer down
		}
		var jf jobFile
		if json.Unmarshal(data, &jf) == nil {
			// A decodable submission record must prepare or error,
			// whatever spec the bytes happened to encode.
			_, _ = Prepare(jf.Spec)
			_ = jf.Spec.describe()
		}
		var spec Spec
		if json.Unmarshal(data, &spec) == nil {
			if p, err := Prepare(spec); err == nil {
				if p.Campaign.Retries > MaxRetries {
					t.Fatalf("Prepare accepted retries=%d past MaxRetries", p.Campaign.Retries)
				}
				if spec.FlushCycles < 0 || spec.FlushCycles > MaxFlushCycles {
					t.Fatalf("Prepare accepted flush_cycles=%d outside [0, MaxFlushCycles]", spec.FlushCycles)
				}
			}
		}
		var tf terminalFile
		if json.Unmarshal(data, &tf) == nil {
			_ = tf.State.Terminal()
		}
		var sum Summary
		_ = json.Unmarshal(data, &sum)
	})
}
