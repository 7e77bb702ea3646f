package campaign

import (
	"encoding/json"
	"errors"
	"fmt"

	"seqatpg/internal/atpg"
)

// CheckpointFormatVersion is the on-disk checkpoint schema version this
// build reads and writes. The fabric version handshake exchanges it so
// a coordinator refuses workers whose checkpoints it could not
// re-dispatch (a mixed-version fleet must fail fast, not corrupt a
// merge).
const CheckpointFormatVersion = checkpointVersion

// ResultWireVersion is the schema version of the shard-result wire
// format EncodeResult writes. Bumped on any change; DecodeResult
// rejects other versions outright.
const ResultWireVersion = 1

// ErrResultWire reports a shard-result payload that cannot be decoded:
// wrong schema version, truncation, or invalid symbols.
var ErrResultWire = errors.New("campaign: invalid shard-result payload")

// wireResult is the JSON shard-result schema: a complete Result in the
// same human-inspectable encodings the checkpoint format uses ("01X"
// vectors, one digit per outcome, sorted state sets), so a worker's
// shard verdicts survive the network byte-exactly and merge into the
// same global Result a local Execute of the same plan produces.
type wireResult struct {
	Version            int         `json:"version"`
	Outcomes           string      `json:"outcomes"`
	Tests              [][]string  `json:"tests"`
	Crashes            []ckptCrash `json:"crashes,omitempty"`
	Stats              ckptStats   `json:"stats"`
	Passes             int         `json:"passes"`
	Resumed            bool        `json:"resumed"`
	Interrupted        bool        `json:"interrupted"`
	Degraded           bool        `json:"degraded,omitempty"`
	CheckpointFailures int         `json:"checkpoint_failures,omitempty"`
}

// EncodeResult renders a campaign Result in the shard-result wire
// format. Workers call it to persist merge-ready shard verdicts; the
// coordinator decodes the payload with DecodeResult.
func EncodeResult(res *Result) ([]byte, error) {
	w := wireResult{
		Version:            ResultWireVersion,
		Outcomes:           encodeDigits(res.Outcomes),
		Tests:              encodeTests(res.Tests),
		Crashes:            encodeCrashes(res.Crashes),
		Passes:             res.Passes,
		Resumed:            res.Resumed,
		Interrupted:        res.Interrupted,
		Degraded:           res.Degraded,
		CheckpointFailures: res.CheckpointFailures,
		Stats:              encodeStats(res.Stats),
	}
	data, err := json.MarshalIndent(&w, "", " ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encode shard result: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeResult parses and validates a shard-result payload. Every
// structural invariant is checked — schema version, outcome symbols,
// vector symbols, counter consistency with the verdict string — so a
// torn or hostile payload surfaces as ErrResultWire instead of a
// silently wrong merge.
func DecodeResult(data []byte) (*Result, error) {
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrResultWire, err)
	}
	if w.Version != ResultWireVersion {
		return nil, fmt.Errorf("%w: schema version %d, this build reads %d", ErrResultWire, w.Version, ResultWireVersion)
	}
	outcomes, err := decodeDigits(w.Outcomes, atpg.Outcome.Valid)
	if err != nil {
		return nil, fmt.Errorf("%w: outcome %v", ErrResultWire, err)
	}
	res := &Result{
		Outcomes:           outcomes,
		Crashes:            decodeCrashes(w.Crashes),
		Passes:             w.Passes,
		Resumed:            w.Resumed,
		Interrupted:        w.Interrupted,
		Degraded:           w.Degraded,
		CheckpointFailures: w.CheckpointFailures,
	}
	var counted atpg.Stats
	for _, o := range outcomes {
		counted.Tally(o)
	}
	if w.Passes < 0 || w.CheckpointFailures < 0 {
		return nil, fmt.Errorf("%w: negative counters", ErrResultWire)
	}
	s := w.Stats
	if s.Total != len(w.Outcomes) {
		return nil, fmt.Errorf("%w: stats cover %d faults, verdict string has %d", ErrResultWire, s.Total, len(w.Outcomes))
	}
	// An interrupted shard result is not merge-ready (some verdicts are
	// provisional), so the verdict counters only have to reconcile for
	// completed runs; an interrupted payload is still decoded faithfully
	// for the coordinator to inspect and reject.
	if !w.Interrupted &&
		(s.Detected != counted.Detected || s.Redundant != counted.Redundant ||
			s.Aborted != counted.Aborted || s.Crashed != counted.Crashed) {
		return nil, fmt.Errorf("%w: verdict counters disagree with the outcome string", ErrResultWire)
	}
	if s.Negative() {
		return nil, fmt.Errorf("%w: negative effort counters", ErrResultWire)
	}
	tests, err := decodeTests(w.Tests)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrResultWire, err)
	}
	res.Tests = tests
	res.Stats = s.decode()
	return res, nil
}

// CheckCheckpointBytes reports whether data is a structurally sound
// campaign checkpoint of this build's schema version: parseable JSON
// with a verifying payload CRC and no negative effort counter. It
// deliberately does not check the fingerprint — the caller (the fabric
// coordinator caching worker checkpoints for re-dispatch) has no
// circuit in hand; the fingerprint is enforced by loadState when the
// checkpoint is actually resumed.
func CheckCheckpointBytes(data []byte) error {
	_, err := parseCheckpoint(data, "payload")
	return err
}
