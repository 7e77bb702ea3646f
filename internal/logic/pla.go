package logic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PLA is a multi-output two-level function in the espresso exchange
// format: shared input cubes with per-output values (1 = in ON-set,
// 0/~ = not, - = don't care).
type PLA struct {
	NumInputs  int
	NumOutputs int
	// Rows pair an input cube with an output cube; output position j
	// uses One for ON, Zero for OFF, Dash for don't care.
	Rows []PLARow
}

// PLARow is one product line of a PLA file.
type PLARow struct {
	Input  Cube
	Output Cube
}

// OnSet extracts the ON-set cover of output j.
func (p *PLA) OnSet(j int) *Cover { return p.inputsWhere(j, One) }

// DCSet extracts the don't-care cover of output j.
func (p *PLA) DCSet(j int) *Cover { return p.inputsWhere(j, Dash) }

// inputsWhere collects the input cubes of the rows whose output j is v.
func (p *PLA) inputsWhere(j int, v Value) *Cover {
	f := NewCover(p.NumInputs)
	for _, r := range p.Rows {
		if r.Output[j] == v {
			f.Add(r.Input.Clone())
		}
	}
	return f
}

// WritePLA serializes the PLA in espresso format.
func WritePLA(w io.Writer, p *PLA) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n.p %d\n", p.NumInputs, p.NumOutputs, len(p.Rows))
	for _, r := range p.Rows {
		fmt.Fprintf(bw, "%s %s\n", r.Input, r.Output)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// ReadPLA parses an espresso-format PLA. The .i/.o headers are
// required; .p is advisory. Output characters accepted: 1, 0, ~, -.
func ReadPLA(r io.Reader) (*PLA, error) {
	p := &PLA{NumInputs: -1, NumOutputs: -1}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case ".i", ".o", ".p":
			if len(fields) < 2 {
				return nil, fmt.Errorf("pla line %d: missing value", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pla line %d: %v", line, err)
			}
			switch fields[0] {
			case ".i":
				p.NumInputs = n
			case ".o":
				p.NumOutputs = n
			}
		case ".e", ".end":
			// terminator
		case ".ilb", ".ob", ".type":
			// label/type annotations are accepted and ignored
		default:
			if p.NumInputs < 0 || p.NumOutputs < 0 {
				return nil, fmt.Errorf("pla line %d: cube before .i/.o headers", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("pla line %d: expected 'input output'", line)
			}
			in, err := ParseCube(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pla line %d: %v", line, err)
			}
			if len(in) != p.NumInputs {
				return nil, fmt.Errorf("pla line %d: input width %d, want %d", line, len(in), p.NumInputs)
			}
			if len(fields[1]) != p.NumOutputs {
				return nil, fmt.Errorf("pla line %d: output width %d, want %d", line, len(fields[1]), p.NumOutputs)
			}
			out := make(Cube, p.NumOutputs)
			for j, ch := range fields[1] {
				switch ch {
				case '1', '4':
					out[j] = One
				case '0', '~':
					out[j] = Zero
				case '-', '2':
					out[j] = Dash
				default:
					return nil, fmt.Errorf("pla line %d: bad output char %q", line, ch)
				}
			}
			p.Rows = append(p.Rows, PLARow{Input: in, Output: out})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.NumInputs < 0 || p.NumOutputs < 0 {
		return nil, fmt.Errorf("pla: missing .i/.o headers")
	}
	return p, nil
}

// MinimizePLA minimizes every output of the PLA against its per-output
// don't-care set and returns a new PLA with one row per product term
// (outputs are not shared between terms; sharing is the synthesizer's
// job downstream).
func MinimizePLA(p *PLA) *PLA {
	out := &PLA{NumInputs: p.NumInputs, NumOutputs: p.NumOutputs}
	for j := 0; j < p.NumOutputs; j++ {
		min := Minimize(p.OnSet(j), p.DCSet(j))
		for _, c := range min.Cubes {
			ov := make(Cube, p.NumOutputs) // all Zero
			ov[j] = One
			out.Rows = append(out.Rows, PLARow{Input: c.Clone(), Output: ov})
		}
	}
	return out
}
