package fabric

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/service"
)

// sortedSeqs renders generated test sequences order-independently:
// placement legitimately permutes Result.Tests (the concatenation
// follows the partition), so invariance is pinned on the multiset.
func sortedSeqs(res *campaign.Result) []string {
	out := make([]string, len(res.Tests))
	for i, seq := range res.Tests {
		out[i] = fmt.Sprintf("%v", seq)
	}
	sort.Strings(out)
	return out
}

// TestFabricBalancedPlacementInvariance: packing shards by predicted
// cost instead of round-robin must not change a single verdict — the
// soundness rule is that prediction only moves work between workers.
// For K ∈ {2, 3}, a Balance-on federated run reproduces the K=1
// reference's outcomes, stats and test multiset, and the coordinator
// reports the placement's predicted load spread.
func TestFabricBalancedPlacementInvariance(t *testing.T) {
	spec := service.Spec{Name: "balanced", Netlist: benchText(t, 5, 2), MaxFaults: 16}
	w0, w1 := startWorker(t, nil), startWorker(t, nil)

	single := reference(t, spec, 1)
	p, err := service.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3} {
		// Sanity: the balanced partition is a real repacking, not the
		// round-robin split under a different flag.
		idxs := campaign.PlanBalanced(p.Campaign, p.Scores, k).Indices()
		if reflect.DeepEqual(idxs, campaign.PlanRoundRobin(p.Campaign, len(p.Faults), k).Indices()) {
			t.Logf("K=%d: balanced partition coincides with round-robin", k)
		}

		coord, err := NewCoordinator(Options{
			Workers:   []string{w0.url(), w1.url()},
			Shards:    k,
			Balance:   true,
			Lease:     5 * time.Second,
			Heartbeat: 10 * time.Millisecond,
			Client:    chaosClientOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got.Outcomes, single.Outcomes) {
			t.Fatalf("K=%d: balanced placement changed verdicts", k)
		}
		if !reflect.DeepEqual(got.Stats, single.Stats) {
			t.Fatalf("K=%d: balanced placement changed stats:\n got %+v\nwant %+v", k, got.Stats, single.Stats)
		}
		if !reflect.DeepEqual(sortedSeqs(got), sortedSeqs(single)) {
			t.Fatalf("K=%d: balanced placement changed the generated test multiset", k)
		}
		snap := coord.Metrics()
		if snap.PredictedEvalsTotal <= 0 || snap.PredictedShardEvalsMax <= 0 {
			t.Fatalf("K=%d: placement metrics not recorded: %+v", k, snap)
		}
		if snap.PredictedShardEvalsMin > snap.PredictedShardEvalsMax {
			t.Fatalf("K=%d: predicted min %d > max %d", k, snap.PredictedShardEvalsMin, snap.PredictedShardEvalsMax)
		}
	}
}

// TestCoordinatorShardCap: the coordinator refuses a shard count its
// workers would reject, before contacting any of them.
func TestCoordinatorShardCap(t *testing.T) {
	workers := []string{"http://127.0.0.1:1"}
	if _, err := NewCoordinator(Options{Workers: workers, Shards: service.MaxShards + 1}); err == nil {
		t.Fatal("coordinator accepted a shard count above service.MaxShards")
	}
	if _, err := NewCoordinator(Options{Workers: workers, Shards: service.MaxShards}); err != nil {
		t.Fatalf("coordinator rejected a shard count at the cap: %v", err)
	}
}
