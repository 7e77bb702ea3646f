// Command analyze reports a netlist's structural attributes (maximum
// sequential depth, cycle statistics) and its state-space profile
// (valid states, density of encoding) — the paper's Table 5 and Table
// 6/7 instrumentation for a single circuit.
//
// Usage:
//
//	analyze -in a.net
//	analyze -in a.net -predict      # per-fault hardness table
//
// Exit codes:
//
//	0  analysis completed
//	1  setup or analysis failed
//	2  usage error
//	4  interrupted (signal) before the reachability phase
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	"seqatpg/internal/analyze"
	"seqatpg/internal/atpg"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/reach"
	"seqatpg/internal/retime"
	"seqatpg/internal/service"
)

const (
	exitOK          = 0
	exitSetup       = 1
	exitUsage       = 2
	exitInterrupted = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "input netlist")
	skipReach := flag.Bool("noreach", false, "skip the symbolic reachability analysis")
	predictTable := flag.Bool("predict", false, "print the per-fault hardness table: testability features, predicted cost, scheduling queue")
	budget := flag.Int64("budget", 0, "per-fault effort budget the rung assignment assumes (default: 8000 x gates, matching atpg)")
	retries := flag.Int("retries", 2, "retry-ladder passes the rung assignment assumes (matching atpg)")
	showVersion := flag.Bool("version", false, "print the build identity (the /version handshake) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(service.Version())
		return exitOK
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "analyze: -in is required")
		flag.Usage()
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stats, err := c.ComputeStats(netlist.DefaultLibrary())
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	fmt.Printf("circuit:        %s\n", c.Name)
	fmt.Printf("gates:          %d comb, %d DFFs, %d PIs, %d POs\n",
		stats.Gates, stats.DFFs, stats.PIs, stats.POs)
	fmt.Printf("area / delay:   %.0f / %.2f\n", stats.Area, stats.Delay)

	attr, err := analyze.Analyze(c)
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	note := ""
	if attr.Truncated {
		note = " (lower bounds; enumeration truncated)"
	}
	fmt.Printf("seq depth:      %d\n", attr.MaxSeqDepth)
	fmt.Printf("max cycle len:  %d\n", attr.MaxCycleLength)
	fmt.Printf("cycles (Lioy):  %d%s\n", attr.NumCycles, note)

	if !*skipReach {
		// Reachability is the expensive phase; honor a signal that
		// arrived during the structural analysis before starting it.
		if ctx.Err() != nil {
			log.Print("interrupted before reachability (structural report above is complete)")
			return exitInterrupted
		}
		if c.ResetPI < 0 {
			log.Print("circuit has no reset line; cannot run reachability (use -noreach)")
			return exitSetup
		}
		flush, err := retime.FlushLength(c)
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		ra, err := reach.Analyze(c, reach.Options{FlushCycles: flush})
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		fmt.Printf("valid states:   %.0f of %.0f\n", ra.ValidStates, ra.TotalStates)
		fmt.Printf("density:        %.3g\n", ra.Density)
	}

	if *predictTable {
		if err := printPredictTable(c, *budget, *retries); err != nil {
			log.Print(err)
			return exitSetup
		}
	}
	return exitOK
}

// printPredictTable reports each collapsed fault's testability features
// next to the predictor's verdict on them — the predicted cost in gate
// evaluations, the retry-ladder rung a scheduled campaign would start
// it at, and the queue it would run in (queue 0 is the easy-first
// stream; higher queues are the concurrent big-budget ones). The queue
// is read off campaign.PlanScheduled, the plan atpg -schedule runs, so
// this table is the dry-run view of what -schedule would do.
func printPredictTable(c *netlist.Circuit, budget int64, retries int) error {
	if budget == 0 {
		budget = 8000 * int64(c.NumGates())
	}
	if retries < 0 {
		retries = 0
	}
	faults := fault.CollapsedUniverse(c)
	flush, err := retime.FlushLength(c)
	if err != nil {
		return err
	}
	fs, err := predict.Extract(c, faults, predict.Options{WithDensity: true, FlushCycles: flush})
	if err != nil {
		return err
	}
	plan := predict.NewPlan(fs, nil, budget, retries)
	sched, err := campaign.PlanScheduled(c, faults, campaign.Config{
		Engine:  atpg.Config{FaultBudget: budget, FlushCycles: flush},
		Retries: retries,
	}, campaign.SchedConfig{WithDensity: true, RungBudgets: true})
	if err != nil {
		return err
	}
	queue := make([]int, len(faults))
	for q, part := range sched {
		for _, i := range part.Indices {
			queue[i] = q
		}
	}

	hard := 0
	for _, h := range plan.Hard {
		if h {
			hard++
		}
	}
	density := "unknown"
	if fs.Density.Known {
		density = fmt.Sprintf("%.3g", fs.Density.Value)
	}
	fmt.Printf("\npredictor:      %s (budget %d, retries %d)\n", plan.Predictor, budget, retries)
	fmt.Printf("predicted hard: %d of %d faults, density %s, scoap converged %v (%d passes)\n",
		hard, len(faults), density, fs.SCOAPConverged, fs.SCOAPPasses)

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "fault\tcc0\tcc1\tact\tobs\tseq\tffr\tfan\tscore\trung\tqueue\t")
	for i, f := range fs.Faults {
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4g\t%d\t%d\t\n",
			faults[i], f.CC0, f.CC1, f.CCAct, f.Obs, f.SeqDepth, f.FFRSize, f.Fanout,
			plan.Scores[i], plan.Rungs[i], queue[i])
	}
	return w.Flush()
}
