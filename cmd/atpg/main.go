// Command atpg runs one of the three structural sequential test
// generators over a netlist as a resilient campaign: deadline-aware,
// checkpointable, crash-isolating, with retry escalation for aborted
// faults.
//
// Usage:
//
//	atpg -in a.net -engine hitec -budget 3000000
//	atpg -in a.net -deadline 2h -checkpoint a.ckpt   # long run
//	atpg -in a.net -checkpoint a.ckpt -resume        # pick it back up
//
// Exit codes:
//
//	0  run completed
//	1  setup failed (bad input, bad config, foreign checkpoint)
//	2  usage error
//	3  run completed but fault efficiency is below -min-fe
//	4  run interrupted (signal or -deadline); checkpoint written if configured
//	5  run completed but post-processing (compaction, vector output) failed
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"seqatpg/internal/atpg"
	"seqatpg/internal/atpg/attest"
	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/atpg/sest"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atpg: ")
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "input netlist")
	engine := flag.String("engine", "hitec", "engine: hitec, attest, sest")
	budget := flag.Int64("budget", 0, "per-fault effort budget in gate evaluations (default: 8000 x gates)")
	flush := flag.Int("flush", 0, "reset-hold cycles (default: measured from the circuit)")
	showAborts := flag.Bool("aborts", false, "list the aborted faults")
	compact := flag.Bool("compact", false, "apply static compaction to the test set")
	out := flag.String("o", "", "write the generated test vectors to this file")
	deadline := flag.Duration("deadline", 0, "stop cooperatively after this wall-clock budget (0 = none)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: written periodically and on interruption, removed on success")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it exists")
	retries := flag.Int("retries", 2, "escalation passes re-attacking aborted faults at 2x, 4x, ... budget (0 = off)")
	minFE := flag.Float64("min-fe", 0, "exit with status 3 if final fault efficiency is below this percentage")
	fsimWorkers := flag.Int("fsim-workers", 0, "fault-simulation worker count (0 = all CPUs; results are identical for every value)")
	sharedLearn := flag.Bool("shared-learn", false, "share the justification cache across faults (implies learning; verdict-preserving under generous budgets)")
	learnCap := flag.Int("learn-cap", 0, "size bound per learning store, oldest evicted first (0 = default 4096)")
	cdcl := flag.Bool("cdcl", false, "conflict-driven search: learn blocking cubes from conflicts, backjump non-chronologically, restart on a Luby schedule (verdict-preserving)")
	schedule := flag.Bool("schedule", false, "testability-aware scheduling: order faults easy-first by predicted cost, run predicted-hard faults on concurrent big-budget queues starting at their predicted ladder rung (verdict-preserving)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	showVersion := flag.Bool("version", false, "print the build identity (the /version handshake) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(service.Version())
		return exitOK
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "atpg: -in is required")
		flag.Usage()
		return exitUsage
	}
	if *minFE < 0 || *minFE > 100 {
		fmt.Fprintf(os.Stderr, "atpg: -min-fe %v is not a percentage\n", *minFE)
		return exitUsage
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	c, err := netlist.Read(f)
	f.Close()
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	if *budget == 0 {
		*budget = 8000 * int64(c.NumGates())
	}
	if *flush == 0 {
		n, err := retime.FlushLength(c)
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		*flush = n
		if *flush < 1 {
			*flush = 1
		}
	}

	var cfg atpg.Config
	switch *engine {
	case "hitec":
		cfg = hitec.DefaultConfig(*flush, *budget)
	case "attest":
		cfg = attest.DefaultConfig(*flush, *budget)
	case "sest":
		cfg = sest.DefaultConfig(*flush, *budget)
	default:
		log.Printf("unknown engine %q", *engine)
		return exitUsage
	}
	if *sharedLearn {
		cfg.Learning = true
		cfg.SharedLearning = true
	}
	if *learnCap != 0 {
		cfg.LearnCap = *learnCap
	}
	cfg.ConflictLearning = *cdcl

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			log.Print(err)
			return exitSetup
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			pf, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				log.Print(err)
			}
			pf.Close()
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	faults := fault.CollapsedUniverse(c)
	ccfg := campaign.Config{
		Engine:         cfg,
		Retries:        *retries,
		FsimWorkers:    *fsimWorkers,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Log:            log.Printf,
	}
	var res *campaign.Result
	if *schedule {
		var plan campaign.Plan
		plan, err = campaign.PlanScheduled(c, faults, ccfg, campaign.SchedConfig{
			WithDensity: true,
			RungBudgets: true,
		})
		if err == nil {
			res, err = campaign.Execute(ctx, c, faults, plan)
		}
	} else {
		res, err = campaign.Run(ctx, c, faults, ccfg)
	}
	if err != nil {
		log.Print(err)
		return exitSetup
	}

	s := res.Stats
	fmt.Printf("circuit:   %s (%d gates, %d DFFs)\n", c.Name, c.NumGates(), c.NumDFFs())
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
	effWorkers := *fsimWorkers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("fsim:      %d workers (a throughput knob; results identical for every value)\n",
		effWorkers)
	fmt.Printf("tests:     %d sequences\n", len(res.Tests))
	fmt.Printf("states:    %d distinct states traversed\n", len(s.StatesTraversed))
	if s.LearnHits+s.LearnPrunes > 0 {
		fmt.Printf("learning:  %d cache hits, %d prunes\n", s.LearnHits, s.LearnPrunes)
	}
	if *cdcl || s.LearnedCubes+s.Backjumps+s.Restarts > 0 {
		fmt.Printf("cdcl:      %d learned cubes, %d backjumps, %d restarts\n",
			s.LearnedCubes, s.Backjumps, s.Restarts)
	}
	for _, cr := range res.Crashes {
		log.Printf("%v", cr.Error())
	}
	if res.Degraded {
		log.Printf("WARNING: %d checkpoint write(s) failed during the run; "+
			"the verdicts above are unaffected, but an interruption would have lost more progress than -checkpoint-every promises",
			res.CheckpointFailures)
	}
	if *showAborts {
		for i, o := range res.Outcomes {
			if o == atpg.Aborted {
				fmt.Printf("  aborted: %v\n", faults[i])
			}
		}
	}

	if res.Interrupted {
		// The report above is the partial progress; the run itself did
		// not finish, so skip post-processing and coverage gating.
		if *checkpoint != "" {
			log.Printf("interrupted; resume with -checkpoint %s -resume", *checkpoint)
		} else {
			log.Print("interrupted; rerun with -checkpoint to make runs resumable")
		}
		return exitInterrupted
	}

	// Post-processing: the campaign is done, so failures here must not
	// discard the report (no log.Fatal past this point).
	tests := res.Tests
	if *compact {
		kept, err := atpg.CompactTests(c, tests, faults)
		if err != nil {
			log.Printf("compaction failed: %v", err)
			return exitPostRun
		}
		fmt.Printf("compacted: %d sequences (reverse-order static compaction)\n", len(kept))
		tests = kept
	}
	if *out != "" {
		if err := writeVectors(*out, tests); err != nil {
			log.Printf("writing vectors failed: %v", err)
			return exitPostRun
		}
		fmt.Printf("written:   %s\n", *out)
	}

	if *minFE > 0 && s.FE() < *minFE {
		log.Printf("fault efficiency %.2f%% is below the -min-fe gate of %.2f%%", s.FE(), *minFE)
		return exitCoverage
	}
	return exitOK
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
