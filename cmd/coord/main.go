// Command coord runs a federated ATPG campaign across a fleet of
// `serve` workers: it splits the collapsed fault universe into the
// shards of a deterministic campaign.Plan (round-robin, or balanced by
// predicted cost with -balance), dispatches each shard as a job over
// the workers' JSON API, holds dispatched shards under heartbeat-renewed
// leases, re-dispatches lost shards from their last durable checkpoint,
// and merges the shard results into a global report identical to a
// single-node run (see internal/fabric).
//
// Usage:
//
//	coord -in a.bench -workers http://n1:8080,http://n2:8080
//	coord -in a.bench -workers ... -shards 8 -dir ./coord-state
//
// With -dir, shard checkpoints and finished shard results are durable:
// a restarted coordinator re-dispatches only the unfinished shards.
//
// Exit codes:
//
//	0  campaign completed
//	1  setup or dispatch failed (bad input, incompatible fleet, shard exhausted)
//	2  usage error
//	3  campaign completed but fault efficiency is below -min-fe
//	4  campaign interrupted (signal or -deadline)
//	5  campaign completed but post-processing (vector output) failed
//	6  campaign completed degraded (worker checkpoint persistence failed
//	   mid-run; verdicts are unaffected, resume coverage had gaps)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on http.DefaultServeMux for the ops listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqatpg/internal/fabric"
	"seqatpg/internal/rescache"
	"seqatpg/internal/service"
	"seqatpg/internal/sim"
)

const (
	exitOK          = 0
	exitSetup       = 1
	exitUsage       = 2
	exitCoverage    = 3
	exitInterrupted = 4
	exitPostRun     = 5
	exitDegraded    = 6
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coord: ")
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "input netlist")
	format := flag.String("format", "", "netlist format: bench, net (default: by extension, .net = net)")
	engine := flag.String("engine", "hitec", "engine: hitec, attest, sest")
	budget := flag.Int64("budget", 0, "per-fault effort budget in gate evaluations (default: 8000 x gates)")
	retries := flag.Int("retries", 2, "escalation passes re-attacking aborted faults at 2x, 4x, ... budget (0 = off)")
	seed := flag.Int64("seed", 0, "seed for the engine's randomized phases")
	maxFaults := flag.Int("max-faults", 0, "truncate the collapsed fault universe (0 = all)")
	flush := flag.Int("flush", 0, "reset-hold cycles (default: measured from the circuit)")
	name := flag.String("name", "", "job label echoed in worker status output")

	workers := flag.String("workers", "", "comma-separated worker base URLs (required)")
	shards := flag.Int("shards", 0, "shard count (0 = one per worker)")
	balance := flag.Bool("balance", false, "pack shards balanced by predicted fault cost instead of round-robin (verdict-preserving; whole fleet must run the same API version)")
	lease := flag.Duration("lease", 30*time.Second, "shard lease: re-dispatch after this long without observable progress")
	heartbeat := flag.Duration("heartbeat", 0, "status-poll interval renewing leases (0 = lease/5)")
	redispatchMax := flag.Int("redispatch-max", 8, "dispatch attempts per shard before giving up")
	retryMax := flag.Int("retry-max", 3, "HTTP retries per call (negative = off)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-attempt HTTP timeout")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "base retry backoff (exponential, jittered)")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "retry backoff cap")
	breakerFails := flag.Int("breaker-fails", 8, "consecutive failures that eject a worker (negative = breaker off)")
	probation := flag.Duration("probation", 15*time.Second, "how long an ejected worker sits out before a re-admission probe")

	dir := flag.String("dir", "", "durable coordinator state (shard checkpoints, results, journal); empty = in-memory only")
	out := flag.String("o", "", "write the generated test vectors to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty = off)")
	minFE := flag.Float64("min-fe", 0, "exit with status 3 if final fault efficiency is below this percentage")
	deadline := flag.Duration("deadline", 0, "stop cooperatively after this wall-clock budget (0 = none)")
	fsimWorkers := flag.Int("fsim-workers", 0, "merge fault-simulation worker count (0 = 1; results are identical for every value)")
	cacheDir := flag.String("cache-dir", "", "content-addressed shard-result cache directory (empty = cache off)")
	cacheCap := flag.Int64("cache-cap", rescache.DefaultCap, "shard-result cache capacity in payload bytes; LRU eviction past it (negative = unbounded)")
	showVersion := flag.Bool("version", false, "print the build identity (the /version handshake) and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(service.Version())
		return exitOK
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "coord: -in is required")
		flag.Usage()
		return exitUsage
	}
	if *workers == "" {
		fmt.Fprintln(os.Stderr, "coord: -workers is required")
		flag.Usage()
		return exitUsage
	}
	if *minFE < 0 || *minFE > 100 {
		fmt.Fprintf(os.Stderr, "coord: -min-fe %v is not a percentage\n", *minFE)
		return exitUsage
	}
	var fleet []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			fleet = append(fleet, w)
		}
	}
	if len(fleet) == 0 {
		fmt.Fprintln(os.Stderr, "coord: -workers lists no URLs")
		return exitUsage
	}

	text, err := os.ReadFile(*in)
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	if *format == "" {
		if strings.HasSuffix(*in, ".net") {
			*format = "net"
		} else {
			*format = "bench"
		}
	}
	spec := service.Spec{
		Name:        *name,
		Netlist:     string(text),
		Format:      *format,
		Engine:      *engine,
		FaultBudget: *budget,
		Retries:     *retries,
		Seed:        *seed,
		MaxFaults:   *maxFaults,
		FlushCycles: *flush,
	}

	var cache *rescache.Cache
	if *cacheDir != "" {
		cache, err = rescache.Open(rescache.Options{Dir: *cacheDir, CapBytes: *cacheCap, Logf: log.Printf})
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		st := cache.Stats()
		log.Printf("shard-result cache in %s: %d entries, %d bytes (cap %d)", *cacheDir, st.Entries, st.Bytes, *cacheCap)
	}

	coord, err := fabric.NewCoordinator(fabric.Options{
		Workers:       fleet,
		Shards:        *shards,
		Balance:       *balance,
		Lease:         *lease,
		Heartbeat:     *heartbeat,
		MaxRedispatch: *redispatchMax,
		Dir:           *dir,
		FsimWorkers:   *fsimWorkers,
		Cache:         cache,
		Logf:          log.Printf,
		Client: fabric.ClientOptions{
			RetryMax:         *retryMax,
			RequestTimeout:   *reqTimeout,
			BackoffBase:      *backoff,
			BackoffMax:       *backoffMax,
			BreakerThreshold: *breakerFails,
			Probation:        *probation,
		},
	})
	if err != nil {
		log.Print(err)
		return exitSetup
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", coord.MetricsHandler())
		// net/http/pprof registers on http.DefaultServeMux at import;
		// mounting it here keeps profiles on the ops address, off the
		// coordination listener.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		ms := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ms.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics listener: %v", err)
			}
		}()
		defer ms.Close()
		log.Printf("metrics and pprof on %s", *metricsAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	res, err := coord.Run(ctx, spec)
	snap := coord.Metrics()
	if err != nil {
		if ctx.Err() != nil {
			log.Printf("interrupted: %v", err)
			if *dir != "" {
				log.Printf("restart with the same -dir to resume from %d finished shard(s) and the cached checkpoints", snap.ShardsRestoredTotal)
			}
			return exitInterrupted
		}
		log.Print(err)
		return exitSetup
	}

	s := res.Stats
	fmt.Printf("fleet:     %d worker(s), %d shard(s), %d re-dispatch(es), %d ejection(s), %d restored, %d cached\n",
		len(fleet), shardCount(*shards, len(fleet)), snap.RedispatchTotal, snap.WorkerEjectedTotal, snap.ShardsRestoredTotal, snap.ShardsCachedTotal)
	fmt.Printf("engine:    %s (%d passes", *engine, res.Passes)
	if res.Resumed {
		fmt.Printf(", resumed")
	}
	fmt.Printf(")\n")
	fmt.Printf("faults:    %d total, %d detected, %d redundant, %d aborted",
		s.Total, s.Detected, s.Redundant, s.Aborted)
	if s.Crashed > 0 {
		fmt.Printf(", %d crashed", s.Crashed)
	}
	fmt.Printf("\n")
	fmt.Printf("coverage:  FC %.2f%%  FE %.2f%%\n", s.FC(), s.FE())
	fmt.Printf("effort:    %d gate evaluations, %d backtracks\n", s.Effort, s.Backtracks)
	fmt.Printf("tests:     %d sequences\n", len(res.Tests))

	if *out != "" {
		if err := writeVectors(*out, res.Tests); err != nil {
			log.Printf("writing vectors failed: %v", err)
			return exitPostRun
		}
		fmt.Printf("written:   %s\n", *out)
	}
	if *minFE > 0 && s.FE() < *minFE {
		log.Printf("fault efficiency %.2f%% is below the -min-fe gate of %.2f%%", s.FE(), *minFE)
		return exitCoverage
	}
	if res.Degraded {
		log.Printf("completed DEGRADED: %d worker checkpoint write(s) failed mid-run; "+
			"the verdicts above are unaffected, but re-dispatch would have lost more progress than promised",
			res.CheckpointFailures)
		return exitDegraded
	}
	return exitOK
}

func shardCount(shards, workers int) int {
	if shards > 0 {
		return shards
	}
	return workers
}

func writeVectors(path string, tests [][][]sim.Val) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteVectors(file, tests); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
