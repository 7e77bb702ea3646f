package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// checkpointVersion is bumped whenever the on-disk schema changes; a
// file with a different version is rejected, never reinterpreted.
// Version 2 added the payload CRC32 and the .prev generation; version 3
// added the learned-cube store and the conflict-driven search counters.
// Retiring the shared failed-cube store's omitempty key kept version 3:
// every file without it keeps its bytes, and one that still carries
// entries fails its CRC (the re-marshal omits them), so it is refused,
// not resumed with the store silently dropped.
const checkpointVersion = 3

// prevSuffix names the previous checkpoint generation, kept so a
// corrupt current generation never strands a resume.
const prevSuffix = ".prev"

// ErrCheckpointMismatch reports a checkpoint that does not belong to
// this campaign: wrong schema version, or a fingerprint recorded over a
// different circuit, engine config, retry ladder or fault list.
var ErrCheckpointMismatch = errors.New("campaign: checkpoint does not match this run")

// Fingerprint binds a checkpoint to everything that determines a
// campaign's trajectory: the circuit structure, the engine
// configuration, the retry ladder and the exact fault list. Resuming
// under any other fingerprint would silently produce garbage, so
// loadState refuses it.
func Fingerprint(c *netlist.Circuit, cfg Config, faults []fault.Fault) string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign-v%d\n", checkpointVersion)
	if err := netlist.Write(h, c); err != nil {
		// netlist.Write to a hash cannot fail for a validated circuit;
		// fold the error in so a failure still perturbs the digest.
		fmt.Fprintf(h, "write-error: %v\n", err)
	}
	// FsimWorkers is machine-local and binds nothing.
	fmt.Fprintf(h, "engine: %s\n", cfg.Engine.Canonical())
	fmt.Fprintf(h, "retries: %d\n", cfg.Retries)
	for _, f := range faults {
		fmt.Fprintf(h, "fault: %d %d %d\n", f.Gate, f.Pin, f.SA)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// On-disk schema. Vectors are "01X" strings so checkpoints stay
// human-inspectable; state sets are sorted for deterministic files.
// Crc is the IEEE CRC32 of the file's canonical JSON rendering with
// Crc itself zeroed — it catches torn tails and bit rot that still
// happen to parse, which the fingerprint (a digest of the campaign,
// not of the file) cannot.
type ckptFile struct {
	Version     int         `json:"version"`
	Crc         uint32      `json:"crc32"`
	Fingerprint string      `json:"fingerprint"`
	Pass        int         `json:"pass"`
	PassFaults  []int       `json:"pass_faults"`
	Outcomes    string      `json:"outcomes"` // one digit per fault
	Done        string      `json:"done"`     // '0'/'1' per fault
	Agg         passAgg     `json:"agg"`
	States      []uint64    `json:"states"`
	Tests       [][]string  `json:"tests"`
	Crashes     []ckptCrash `json:"crashes,omitempty"`
	Snap        *ckptSnap   `json:"snap,omitempty"`
}

type ckptCrash struct {
	Index int    `json:"index"`
	Gate  int    `json:"gate"`
	Pin   int    `json:"pin"`
	SA    int    `json:"sa"`
	Panic string `json:"panic"`
	Stack string `json:"stack"`
}

type ckptSnap struct {
	Next         int            `json:"next"`
	RandomDone   bool           `json:"random_done"`
	Status       string         `json:"status"` // one digit per pass fault
	Tests        [][]string     `json:"tests"`
	Stats        ckptStats      `json:"stats"`
	TotalLeft    int64          `json:"total_left"`
	OutOfBudget  bool           `json:"out_of_budget"`
	FailedCubes  []string       `json:"failed_cubes,omitempty"`
	Achieved     []ckptAchieved `json:"achieved,omitempty"`
	LearnedCubes []ckptLemma    `json:"learned_cubes,omitempty"`
	Crashes      []ckptCrash    `json:"crashes,omitempty"`
}

// ckptStats is a snapshot's (or a wire result's) Stats with the
// traversed-state set rendered sorted.
type ckptStats struct {
	atpg.Stats
	States []uint64 `json:"states"`
}

func encodeStats(s atpg.Stats) ckptStats {
	return ckptStats{Stats: s, States: sortedStates(s.StatesTraversed)}
}

func (cs ckptStats) decode() atpg.Stats {
	s := cs.Stats
	s.StatesTraversed = statesSet(cs.States)
	return s
}

// passAgg is the on-disk shape of state.agg, the across-pass counters:
// version 3 wrote them untagged, Unconfirmed last. Changing the shape
// needs checkpointVersion 4, and the version is hashed into every
// Fingerprint.
type passAgg struct {
	Effort       int64
	Backtracks   int64
	LearnHits    int64
	LearnPrunes  int64
	LearnedCubes int64
	Backjumps    int64
	Restarts     int64
	Unconfirmed  int
}

func encodeAgg(c atpg.Counters) passAgg {
	return passAgg{c.Effort, c.Backtracks, c.LearnHits, c.LearnPrunes, c.LearnedCubes, c.Backjumps, c.Restarts, c.Unconfirmed}
}

func (a passAgg) decode() atpg.Counters {
	return atpg.Counters{Unconfirmed: a.Unconfirmed, Effort: a.Effort, Backtracks: a.Backtracks, LearnHits: a.LearnHits,
		LearnPrunes: a.LearnPrunes, LearnedCubes: a.LearnedCubes, Backjumps: a.Backjumps, Restarts: a.Restarts}
}

// ckptLemma is one shared learned cube ("01X" state cube forcing one
// next-state bit) in the checkpoint schema.
type ckptLemma struct {
	Cube string `json:"cube"`
	Bit  int    `json:"bit"`
	Val  int    `json:"val"`
}

type ckptAchieved struct {
	Fault string   `json:"fault"`
	Bits  uint64   `json:"bits"`
	Seq   []string `json:"seq"`
}

func encodeVec(v []sim.Val) string {
	b := make([]byte, len(v))
	for i, x := range v {
		switch x {
		case sim.V0:
			b[i] = '0'
		case sim.V1:
			b[i] = '1'
		default:
			b[i] = 'X'
		}
	}
	return string(b)
}

func decodeVec(s string) ([]sim.Val, error) {
	v := make([]sim.Val, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			v[i] = sim.V0
		case '1':
			v[i] = sim.V1
		case 'X':
			v[i] = sim.VX
		default:
			return nil, fmt.Errorf("campaign: checkpoint vector has invalid symbol %q", s[i])
		}
	}
	return v, nil
}

func encodeSeq(seq [][]sim.Val) []string {
	out := make([]string, len(seq))
	for i, v := range seq {
		out[i] = encodeVec(v)
	}
	return out
}

func decodeSeq(seq []string) ([][]sim.Val, error) {
	out := make([][]sim.Val, len(seq))
	for i, s := range seq {
		v, err := decodeVec(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func encodeTests(tests [][][]sim.Val) [][]string {
	out := make([][]string, len(tests))
	for i, seq := range tests {
		out[i] = encodeSeq(seq)
	}
	return out
}

func decodeTests(tests [][]string) ([][][]sim.Val, error) {
	if len(tests) == 0 {
		return nil, nil
	}
	out := make([][][]sim.Val, len(tests))
	for i, seq := range tests {
		s, err := decodeSeq(seq)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func encodeCrashes(crashes []*atpg.FaultCrash) []ckptCrash {
	out := make([]ckptCrash, len(crashes))
	for i, cr := range crashes {
		out[i] = ckptCrash{
			Index: cr.Index,
			Gate:  cr.Fault.Gate,
			Pin:   cr.Fault.Pin,
			SA:    int(cr.Fault.SA),
			Panic: cr.Panic,
			Stack: cr.Stack,
		}
	}
	return out
}

func decodeCrashes(crashes []ckptCrash) []*atpg.FaultCrash {
	if len(crashes) == 0 {
		return nil
	}
	out := make([]*atpg.FaultCrash, len(crashes))
	for i, cr := range crashes {
		out[i] = &atpg.FaultCrash{
			Index: cr.Index,
			Fault: fault.Fault{Gate: cr.Gate, Pin: cr.Pin, SA: sim.Val(cr.SA)},
			Panic: cr.Panic,
			Stack: cr.Stack,
		}
	}
	return out
}

func sortedStates(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func statesSet(s []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(s))
	for _, x := range s {
		m[x] = true
	}
	return m
}

// encodeDigits renders one code per fault as a decimal digit: the
// outcome strings of checkpoints and wire results, and a snapshot's
// verdicts.
func encodeDigits[T atpg.Outcome | byte](codes []T) string {
	b := make([]byte, len(codes))
	for i, c := range codes {
		b[i] = '0' + byte(c)
	}
	return string(b)
}

// decodeDigits parses a string encodeDigits wrote, refusing the first
// symbol whose code valid rejects.
func decodeDigits[T atpg.Outcome | byte](s string, valid func(T) bool) ([]T, error) {
	codes := make([]T, len(s))
	for i := 0; i < len(s); i++ {
		if codes[i] = T(s[i] - '0'); !valid(codes[i]) {
			return nil, fmt.Errorf("symbol %q invalid", s[i])
		}
	}
	return codes, nil
}

func encodeSnap(snap *atpg.Snapshot) *ckptSnap {
	if snap == nil {
		return nil
	}
	cs := &ckptSnap{
		Next:        snap.Next,
		RandomDone:  snap.RandomDone,
		Status:      encodeDigits(snap.Status),
		Tests:       encodeTests(snap.Tests),
		TotalLeft:   snap.TotalLeft,
		OutOfBudget: snap.OutOfBudget,
		FailedCubes: snap.FailedCubes,
		Crashes:     encodeCrashes(snap.Crashes),
		Stats:       encodeStats(snap.Stats),
	}
	for _, a := range snap.Achieved {
		cs.Achieved = append(cs.Achieved, ckptAchieved{
			Fault: a.Fault, Bits: a.Bits, Seq: encodeSeq(a.Seq),
		})
	}
	for _, lc := range snap.LearnedCubes {
		cs.LearnedCubes = append(cs.LearnedCubes, ckptLemma{
			Cube: lc.Cube, Bit: lc.Bit, Val: int(lc.Val),
		})
	}
	return cs
}

// decodeLemma validates one learned-cube entry: the cube must be a
// non-empty "01X" string with at least one specified bit, the forced
// bit index non-negative and the forced value binary.
func decodeLemma(lc ckptLemma) (atpg.LearnedCube, error) {
	specified := false
	for i := 0; i < len(lc.Cube); i++ {
		switch lc.Cube[i] {
		case '0', '1':
			specified = true
		case 'X':
		default:
			return atpg.LearnedCube{}, fmt.Errorf("campaign: checkpoint learned cube has invalid symbol %q", lc.Cube[i])
		}
	}
	if len(lc.Cube) == 0 || !specified {
		return atpg.LearnedCube{}, fmt.Errorf("campaign: checkpoint learned cube %q specifies no bits", lc.Cube)
	}
	if lc.Bit < 0 || lc.Bit >= len(lc.Cube) {
		return atpg.LearnedCube{}, fmt.Errorf("campaign: checkpoint learned cube bit %d out of range", lc.Bit)
	}
	if lc.Val != int(sim.V0) && lc.Val != int(sim.V1) {
		return atpg.LearnedCube{}, fmt.Errorf("campaign: checkpoint learned cube value %d is not binary", lc.Val)
	}
	return atpg.LearnedCube{Cube: lc.Cube, Bit: lc.Bit, Val: sim.Val(lc.Val)}, nil
}

func decodeSnap(cs *ckptSnap, passFaults int) (*atpg.Snapshot, error) {
	if cs == nil {
		return nil, nil
	}
	if len(cs.Status) != passFaults {
		return nil, fmt.Errorf("campaign: checkpoint snapshot covers %d faults, pass has %d", len(cs.Status), passFaults)
	}
	status, err := decodeDigits(cs.Status, func(d byte) bool { return atpg.Verdict(d).Valid() })
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint status %w", err)
	}
	tests, err := decodeTests(cs.Tests)
	if err != nil {
		return nil, err
	}
	snap := &atpg.Snapshot{
		Next:        cs.Next,
		RandomDone:  cs.RandomDone,
		Status:      status,
		Tests:       tests,
		TotalLeft:   cs.TotalLeft,
		OutOfBudget: cs.OutOfBudget,
		FailedCubes: cs.FailedCubes,
		Crashes:     decodeCrashes(cs.Crashes),
		Stats:       cs.Stats.decode(),
	}
	for _, a := range cs.Achieved {
		seq, err := decodeSeq(a.Seq)
		if err != nil {
			return nil, err
		}
		snap.Achieved = append(snap.Achieved, atpg.AchievedState{Fault: a.Fault, Bits: a.Bits, Seq: seq})
	}
	for _, lc := range cs.LearnedCubes {
		dec, err := decodeLemma(lc)
		if err != nil {
			return nil, err
		}
		snap.LearnedCubes = append(snap.LearnedCubes, dec)
	}
	return snap, nil
}

// payloadCRC computes the checksum loadState verifies: the IEEE CRC32
// of the file's canonical JSON rendering with the Crc field zeroed.
// Verifying against a re-marshal of the decoded struct (rather than
// the raw bytes) keeps the checksum independent of whitespace, so a
// hand-inspected and re-saved checkpoint still loads.
func payloadCRC(file ckptFile) (uint32, error) {
	file.Crc = 0
	body, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(body), nil
}

// saveState durably rewrites the checkpoint with two generations:
// the payload is written to path+".tmp" and fsynced, the current
// generation (if any) is rotated to path+".prev", the temp file is
// renamed over path and the parent directory is fsynced. A crash at
// any point leaves at least one complete, CRC-verifiable generation
// on disk — the new one, the previous one, or (rotated but not yet
// replaced) the previous one under .prev.
func saveState(fsys ioguard.FS, path, fp string, st *state) error {
	done := make([]byte, len(st.done))
	for i, d := range st.done {
		done[i] = '0'
		if d {
			done[i] = '1'
		}
	}
	file := ckptFile{
		Version:     checkpointVersion,
		Fingerprint: fp,
		Pass:        st.pass,
		PassFaults:  st.passFaults,
		Outcomes:    encodeDigits(st.outcomes),
		Done:        string(done),
		Agg:         encodeAgg(st.agg),
		States:      sortedStates(st.states),
		Tests:       encodeTests(st.tests),
		Crashes:     encodeCrashes(st.crashes),
		Snap:        encodeSnap(st.snap),
	}
	crc, err := payloadCRC(file)
	if err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	file.Crc = crc
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: checkpoint directory: %w", err)
	}
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	if err := fsys.Sync(tmp); err != nil {
		return fmt.Errorf("campaign: sync checkpoint: %w", err)
	}
	// Rotate the current generation out of the way instead of renaming
	// over it: if anything past this point fails, the previous complete
	// checkpoint is still loadable from .prev.
	if err := fsys.Rename(path, path+prevSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("campaign: rotate checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("campaign: commit checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("campaign: sync checkpoint directory: %w", err)
	}
	return nil
}

// removeState deletes every generation of a finished campaign's
// checkpoint (current, previous, stale temp). Only fs.ErrNotExist is
// tolerated; anything else is reported so the caller can log it.
func removeState(fsys ioguard.FS, path string) error {
	var firstErr error
	for _, p := range []string{path, path + prevSuffix, path + ".tmp"} {
		if err := fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// loadState reads and validates a checkpoint, falling back across
// generations. A missing checkpoint (neither generation exists) is not
// an error — the campaign simply starts fresh. A current generation
// that is torn, corrupt or CRC-mismatched falls back to the previous
// generation (fellBack reports this) instead of erroring the whole
// resume; resuming from an older checkpoint is always sound because a
// resumed campaign finishes byte-identical from any valid generation.
// A checkpoint that parses cleanly but belongs to a different campaign
// (ErrCheckpointMismatch) is rejected loudly with no fallback: that is
// operator error, not data loss.
func loadState(fsys ioguard.FS, path, fp string, n int) (st *state, fellBack bool, err error) {
	cur, errCur := loadGeneration(fsys, path, fp, n)
	if errCur == nil {
		return cur, false, nil
	}
	if errors.Is(errCur, ErrCheckpointMismatch) {
		return nil, false, errCur
	}
	curMissing := errors.Is(errCur, fs.ErrNotExist)
	prev, errPrev := loadGeneration(fsys, path+prevSuffix, fp, n)
	switch {
	case errPrev == nil:
		return prev, true, nil
	case errors.Is(errPrev, ErrCheckpointMismatch):
		return nil, false, errPrev
	case errors.Is(errPrev, fs.ErrNotExist):
		if curMissing {
			return nil, false, nil // fresh start
		}
		return nil, false, fmt.Errorf("campaign: checkpoint unusable and no previous generation exists: %w", errCur)
	default:
		return nil, false, fmt.Errorf("campaign: both checkpoint generations unusable: %w; previous: %v", errCur, errPrev)
	}
}

// parseCheckpoint decodes a checkpoint and checks its envelope: the
// schema version (ErrCheckpointMismatch), the payload CRC and the
// effort counters. No run writes a negative counter, so a CRC-valid
// file with one was corrupted or forged before it was checksummed.
// name labels the errors: a file's path, or "payload".
func parseCheckpoint(data []byte, name string) (*ckptFile, error) {
	var file ckptFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", name, err)
	}
	if file.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: %s has schema version %d, this build writes %d",
			ErrCheckpointMismatch, name, file.Version, checkpointVersion)
	}
	want, err := payloadCRC(file)
	if err != nil {
		return nil, fmt.Errorf("campaign: checksum checkpoint %s: %w", name, err)
	}
	if file.Crc != want {
		return nil, fmt.Errorf("campaign: checkpoint %s fails its CRC32 (file records %08x, payload hashes to %08x): torn write or corruption", name, file.Crc, want)
	}
	if file.Agg.decode().Negative() || (file.Snap != nil && file.Snap.Stats.Negative()) {
		return nil, fmt.Errorf("campaign: checkpoint %s has negative effort counters", name)
	}
	return &file, nil
}

// loadGeneration reads and validates one checkpoint generation. A
// missing file surfaces as fs.ErrNotExist; a file recorded for a
// different campaign as ErrCheckpointMismatch; everything else is
// corruption the caller may fall back from.
func loadGeneration(fsys ioguard.FS, path, fp string, n int) (*state, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	file, err := parseCheckpoint(data, path)
	if err != nil {
		return nil, err
	}
	if file.Fingerprint != fp {
		return nil, fmt.Errorf("%w: %s was recorded for fingerprint %.12s…, this run is %.12s… (different circuit, config or fault list)",
			ErrCheckpointMismatch, path, file.Fingerprint, fp)
	}
	if len(file.Outcomes) != n || len(file.Done) != n {
		return nil, fmt.Errorf("%w: %s covers %d faults, this run has %d",
			ErrCheckpointMismatch, path, len(file.Outcomes), n)
	}
	st := &state{
		pass:       file.Pass,
		passFaults: file.PassFaults,
		done:       make([]bool, n),
		agg:        file.Agg.decode(),
		states:     statesSet(file.States),
		crashes:    decodeCrashes(file.Crashes),
	}
	if st.pass < 0 {
		return nil, fmt.Errorf("campaign: checkpoint pass %d invalid", st.pass)
	}
	if st.outcomes, err = decodeDigits(file.Outcomes, atpg.Outcome.Valid); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint outcome %w", err)
	}
	for i := 0; i < n; i++ {
		switch file.Done[i] {
		case '0':
		case '1':
			st.done[i] = true
		default:
			return nil, fmt.Errorf("campaign: checkpoint done symbol %q invalid", file.Done[i])
		}
	}
	seen := make(map[int]bool, len(st.passFaults))
	for _, idx := range st.passFaults {
		if idx < 0 || idx >= n || seen[idx] {
			return nil, fmt.Errorf("campaign: checkpoint pass-fault index %d invalid", idx)
		}
		seen[idx] = true
	}
	if st.tests, err = decodeTests(file.Tests); err != nil {
		return nil, err
	}
	if st.snap, err = decodeSnap(file.Snap, len(st.passFaults)); err != nil {
		return nil, err
	}
	return st, nil
}
