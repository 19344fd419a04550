package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"vase/internal/mna"
)

// Goldens are the expected outcome of every op at the full scale. They are
// written by -regen and checked by every run; see README.md.
type goldens struct {
	LadderSeed int64 `json:"ladder_seed"`
	MaxNodes   int   `json:"max_nodes"`
	// Designs holds synth's outcome per design; serve's synthesize
	// responses must carry the same netlist digest.
	Designs map[string]designObs `json:"designs"`
	// Architectures holds, per simulate design, the netlist its circuit
	// ops run on, in netlist.Encode form.
	Architectures map[string]string `json:"architectures"`
	// Behavioral holds the RK4 trace and assertion-verdict digests.
	Behavioral map[string]rk4Obs `json:"behavioral"`
	// Circuits holds the SolverReference outcome of each circuit (the
	// exact tier must match it byte for byte) and the fast tier's expected
	// engine errors.
	Circuits map[string]circuitGolden `json:"circuits"`
	// Serve holds each request's status and response digest.
	Serve map[string]respObs `json:"serve"`
}

type designObs struct {
	Netlist    string  `json:"netlist"` // sha256 of netlist.Dump
	OpAmps     int     `json:"opamps"`
	AreaUm2    float64 `json:"area_um2"`
	Nonoptimal bool    `json:"nonoptimal"` // the node cap bound the search
	Lint       string  `json:"lint"`       // sha256 of the findings' JSON
	Blocks     int     `json:"vhif_blocks"`
	Err        string  `json:"err,omitempty"`
}

type rk4Obs struct {
	Trace    string `json:"trace"`
	Verdicts string `json:"verdicts"`
	Err      string `json:"err,omitempty"`
}

type circuitObs struct {
	DC      string `json:"dc"`
	DCErr   string `json:"dc_err,omitempty"`
	Tran    string `json:"tran"`
	TranErr string `json:"tran_err,omitempty"`
}

type circuitGolden struct {
	Reference   circuitObs `json:"reference"`
	FastDCErr   string     `json:"fast_dc_err,omitempty"`
	FastTranErr string     `json:"fast_tran_err,omitempty"`
}

type respObs struct {
	Status int    `json:"status"`
	Body   string `json:"body"`
}

const (
	goldenFile    = "goldens.json"
	referenceFile = "reference.bin.gz"
)

func loadGoldens(path string) (*goldens, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("goldens: %w (regenerate with: go run . -regen)", err)
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", path, err)
	}
	if g.LadderSeed != ladderSeed || g.MaxNodes != maxNodes {
		return nil, fmt.Errorf("goldens %s were recorded for ladder seed %d, cap %d; the benchmark uses %d, %d",
			path, g.LadderSeed, g.MaxNodes, ladderSeed, maxNodes)
	}
	return &g, nil
}

func (g *goldens) save(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return fmt.Errorf("encode goldens: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest hashes a sequence of strings and float64 bit patterns.
type digest struct{ h hashWriter }

type hashWriter interface {
	io.Writer
	Sum([]byte) []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) *digest {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	d.h.Write(n[:])
	io.WriteString(d.h, s)
	return d
}

func (d *digest) floats(xs []float64) *digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	d.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
	return d
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }

func hashString(s string) string { return newDigest().str(s).hex() }

// hashSignals digests a time axis and named waveforms in name order.
func hashSignals(time []float64, sig map[string][]float64) string {
	d := newDigest().floats(time)
	names := make([]string, 0, len(sig))
	for n := range sig {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.str(n).floats(sig[n])
	}
	return d.hex()
}

// hashTran digests a transient by node number.
func hashTran(tr *mna.Tran) string {
	if tr == nil {
		return ""
	}
	d := newDigest().floats(tr.Time)
	nodes := make([]int, 0, len(tr.V))
	for n := range tr.V {
		nodes = append(nodes, int(n))
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		d.str(fmt.Sprint(n)).floats(tr.V[mna.Node(n)])
	}
	if tr.Truncated {
		d.str("truncated")
	}
	return d.hex()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// refTrace is one SolverReference outcome kept in full, so the fast tier
// can be held to its ErrorBudget rather than to a digest.
type refTrace struct {
	Key  string
	DC   mna.Solution
	Time []float64
	V    map[mna.Node][]float64
}

// The reference file is a gzip'd gob of every circuit's refTrace.
func saveReferences(path string, refs []refTrace) error {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(zw).Encode(refs); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func loadReferences(path string) (map[string]refTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reference traces: %w (regenerate with: go run . -regen)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("reference traces %s: %w", path, err)
	}
	var refs []refTrace
	if err := gob.NewDecoder(zr).Decode(&refs); err != nil {
		return nil, fmt.Errorf("reference traces %s: %w", path, err)
	}
	out := make(map[string]refTrace, len(refs))
	for _, r := range refs {
		out[r.Key] = r
	}
	return out, nil
}
