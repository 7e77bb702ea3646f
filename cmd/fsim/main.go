// Command fsim fault-simulates a test-vector file against a netlist
// with the PROOFS-style bit-parallel simulator, reporting fault
// coverage — the standalone analog of the paper's PROOFS experiments
// (e.g. grading one circuit's test set on another circuit, Table 8).
//
// Usage:
//
//	fsim -in circuit.net -t tests.vec
//	fsim -in retimed.net -t orig_tests.vec -vcd first.vcd
//
// The vector format is one line of 0/1/X per cycle (one character per
// primary input), blank lines between sequences, '#' comments.
//
// Exit codes:
//
//	0  simulation completed
//	1  setup or simulation failed
//	2  usage error
//	4  interrupted (signal) between sequences
//	5  simulation completed but the VCD dump failed
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/service"
	"seqatpg/internal/sim"
)

const (
	exitOK          = 0
	exitSetup       = 1
	exitUsage       = 2
	exitInterrupted = 4
	exitPostRun     = 5
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsim: ")
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "input netlist")
	tf := flag.String("t", "", "test vector file")
	vcd := flag.String("vcd", "", "dump a VCD waveform of the first sequence to this path")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "fault-simulation worker count (results are identical for every value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	showVersion := flag.Bool("version", false, "print the build identity (the /version handshake) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(service.Version())
		return exitOK
	}
	if *in == "" || *tf == "" {
		fmt.Fprintln(os.Stderr, "fsim: -in and -t are required")
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
	tv, err := os.Open(*tf)
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	seqs, err := sim.ReadVectors(tv, len(c.PIs))
	tv.Close()
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	if len(seqs) == 0 {
		log.Print("no test sequences in the vector file")
		return exitSetup
	}

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

	faults := fault.CollapsedUniverse(c)
	fs, err := fault.NewSimulator(c)
	if err != nil {
		log.Print(err)
		return exitSetup
	}
	detected := make([]bool, len(faults))
	states := map[uint64]bool{}
	tooWide := false // StateTrace refused the circuit: states are not counted
	cycles := 0
	for i, seq := range seqs {
		if ctx.Err() != nil {
			log.Printf("interrupted after %d of %d sequences", i, len(seqs))
			return exitInterrupted
		}
		cycles += len(seq)
		det, err := fs.DetectsParallel(ctx, seq, faults, *workers)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Printf("interrupted after %d of %d sequences", i, len(seqs))
				return exitInterrupted
			}
			log.Print(err)
			return exitSetup
		}
		for i, d := range det {
			detected[i] = detected[i] || d
		}
		if tooWide {
			continue
		}
		trace, err := fault.StateTrace(c, seq)
		if errors.Is(err, fault.ErrStateTooWide) {
			tooWide = true
			continue
		}
		if err != nil {
			log.Print(err)
			return exitSetup
		}
		for st := range trace {
			states[st] = true
		}
	}
	cov := fault.Summarize(detected)
	st := fs.Stats()
	fmt.Printf("circuit:   %s (%d gates, %d DFFs)\n", c.Name, c.NumGates(), c.NumDFFs())
	fmt.Printf("tests:     %d sequences, %d cycles total\n", len(seqs), cycles)
	fmt.Printf("faults:    %d collapsed, %d detected\n", cov.Total, cov.Detected)
	fmt.Printf("coverage:  FC %.2f%%\n", cov.FC())
	if tooWide {
		fmt.Printf("states:    n/a (%d DFFs > %d)\n", c.NumDFFs(), sim.MaxStateBits)
	} else {
		fmt.Printf("states:    %d distinct states traversed\n", len(states))
	}
	fmt.Printf("kernel:    %d workers: %d events, %d gate evals (%d avoided), %d early batch exits\n",
		*workers, st.Events, st.GateEvals, st.GateEvalsAvoided, st.EarlyExits)

	if *vcd != "" {
		// The report above already holds the results; a VCD failure must
		// not discard it.
		if err := dumpVCD(*vcd, c, seqs[0]); err != nil {
			log.Print(err)
			return exitPostRun
		}
		fmt.Printf("vcd:       %s (first sequence)\n", *vcd)
	}
	return exitOK
}

func dumpVCD(path string, c *netlist.Circuit, seq [][]sim.Val) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.DumpVCD(out, c, seq); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
