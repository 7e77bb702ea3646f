package atpg

import (
	"sync"

	"seqatpg/internal/fault"
)

// FaultSource is the fault list a run consumes. A fixed list is a
// closed source (Fixed). An open source (NewFaultSource) grows while
// the run consumes it: the campaign's retry pass p+1 reads the faults
// pass p aborts, as pass p assigns them, and Close marks the list
// complete. Faults only append, so list position i names one fault
// for the whole run. A source has one producer and one consumer run.
type FaultSource struct {
	mu     sync.Mutex
	faults []fault.Fault
	closed bool
	// wake holds a token after an Add or Close the consumer has not
	// seen yet; nil for a fixed source, which never waits.
	wake chan struct{}
}

// Fixed returns a closed source over faults.
func Fixed(faults []fault.Fault) *FaultSource {
	return &FaultSource{faults: faults, closed: true}
}

// NewFaultSource returns an empty open source.
func NewFaultSource() *FaultSource {
	return &FaultSource{wake: make(chan struct{}, 1)}
}

// Add appends f to an open source.
func (s *FaultSource) Add(f fault.Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("atpg: Add to a closed FaultSource")
	}
	s.faults = append(s.faults, f)
	s.signal()
}

// Close marks the list complete; closing twice is a no-op.
func (s *FaultSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.signal()
	}
}

func (s *FaultSource) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// contents returns the faults added so far and whether that is the
// whole list. The producer only appends, so the returned prefix is
// never written again and the run may read it without the lock.
func (s *FaultSource) contents() ([]fault.Fault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults, s.closed
}

// await blocks until the source holds more than n faults or is closed
// (or, with all, until it is closed). ok is false when done fired
// first.
func (s *FaultSource) await(done <-chan struct{}, n int, all bool) (faults []fault.Fault, closed, ok bool) {
	for {
		faults, closed = s.contents()
		if closed || (!all && len(faults) > n) {
			return faults, closed, true
		}
		select {
		case <-s.wake:
		case <-done:
			return faults, closed, false
		}
	}
}
