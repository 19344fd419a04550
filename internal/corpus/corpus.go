// Package corpus holds the five real-life VASS applications of the paper's
// Section 6 — the receiver module of a telephone set, the power meter
// acquisition chain, the missile and iterative equation solvers, and the
// function generator — together with the harness that reproduces Table 1
// (specification metrics, VHIF metrics, synthesis results) and the figure
// experiments.
//
// The original VASS sources (tech report [3]) are not available; these
// specifications are reconstructed from the paper's per-application
// descriptions and dimensioned so that the VHIF and synthesis columns of
// Table 1 are reproduced. Known deviations are listed per application and
// reported by the harness.
package corpus

import (
	"context"
	"fmt"
	"math"
	"strings"

	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/pipeline"
	"vase/internal/sema"
	"vase/internal/vhif"
)

// Application is one benchmark design.
type Application struct {
	// Name as printed in Table 1.
	Name string
	// Key is the short identifier used by CLIs.
	Key string
	// Source is the VASS specification.
	Source string
	// Expected is the Table 1 row from the paper.
	Expected Row
	// Deviations lists known, documented deltas of this reconstruction
	// against the paper's row (empty when exact).
	Deviations []string
}

// Row is one row of Table 1.
type Row struct {
	ContinuousLines int
	Quantities      int
	EventLines      int
	Signals         int
	Blocks          int
	States          int
	Datapath        int
	Synthesis       string
}

// ReceiverSource is the telephone receiver module of Figure 2: it amplifies
// line and local signals with different gains, compensates line-length
// losses by switching the compensation resistance, and drives a 270-ohm
// earphone at 285 mV peak with output limiting.
const ReceiverSource = `entity receiver is
  port (
    quantity line  : in real is voltage;
    quantity local : in real is voltage;
    quantity earph : out real is voltage limited at 1.5 drives 270.0 at 285 mv peak
  );
end entity;

architecture behavioral of receiver is
  constant Aline  : real := 4.0;
  constant Alocal : real := 2.0;
  constant r1c    : real := 0.5;
  constant r2c    : real := 0.25;
  constant Vth    : real := 0.1;
  quantity rvar : real;
  signal c1, busy : bit;
begin
  earph == (Aline * line + Alocal * local) * rvar;
  if (c1 = '1') use rvar == r1c;
  else rvar == r1c + r2c;
  end use;
  process (line'above(Vth)) is begin
    if (line'above(Vth) = true) then c1 <= '1'; busy <= '1';
    else c1 <= '0'; busy <= '1'; end if;
  end process;
end architecture;
`

// PowerMeterSource is the acquisition part of the programmable power meter
// ASIC: it samples the line voltage and current on zero crossings and
// converts the held values to digital data.
const PowerMeterSource = `entity power_meter is
  port (
    quantity vline : in real is voltage;
    quantity iline : in real is current;
    quantity vout  : out real;
    quantity iout  : out real
  );
end entity;

architecture acquisition of power_meter is
  quantity vheld, iheld : real;
  signal sv, si, ready : bit;
begin
  if (sv = '1') use
    vheld == vline;
  end use;
  if (si = '1') use
    iheld == iline;
  end use;
  vout == adc(vheld, 8.0);
  iout == adc(iheld, 8.0);
  process (vline'above(0.0), iline'above(0.0)) is begin
    sv <= vline'above(0.0); si <= iline'above(0.0); ready <= '1';
  end process;
end architecture;
`

// MissileSource is the missile equation solver: a longitudinal flight model
// with square-law drag computed through a log/antilog chain, solved by a
// signal-flow structure with two integrators.
const MissileSource = `entity missile_solver is
  port (
    quantity cmd  : in real is voltage;
    quantity wind : in real is voltage;
    quantity bias : in real is voltage;
    quantity acc  : out real;
    quantity dist : out real
  );
end entity;

architecture flight of missile_solver is
  constant k1 : real := 4.0;
  constant k2 : real := 0.8;
  constant k3 : real := 0.5;
  constant cd : real := 0.3;
  constant n  : real := 2.0;
  quantity vel, pos, drag, spd : real;
begin
  vel'dot == acc; pos'dot == vel;
  acc == k1 * cmd - k2 * vel - k3 * drag;
  spd == vel - wind; drag == cd * exp(n * log(spd));
  dist == pos - bias;
end architecture;
`

// IterSolverSource is the iterative equation solver: an integrator feedback
// loop converging on the solution, with a convergence detector and a
// sample-and-hold latching the settled value.
const IterSolverSource = `entity iter_solver is
  port (quantity x : out real);
end entity;

architecture iterative of iter_solver is
  constant a0 : real := 1.0;
  signal xs : real;
  signal conv : bit;
begin
  x'dot == a0 - x - x'integ;
  process (x'above(0.5), x'above(0.4)) is begin
    conv <= x'above(0.5);
    xs <= x;
  end process;
end architecture;
`

// FuncGenSource is the ramp-signal (function) generator: an integrator with
// a switched slope, retriggered by a Schmitt trigger at the amplitude
// bounds.
const FuncGenSource = `entity func_gen is
  port (quantity wave : out real; signal sync : out bit);
end entity;

architecture ramp of func_gen is
  constant k   : real := 1000.0;
  constant g2  : real := 2.0;
  constant amp : real := 1.0;
  quantity slope : real;
  signal up, run : bit;
begin
  wave'dot == g2 * slope;
  if (up = '1') use slope == k; else slope == -k; end use;
  process (wave'above(amp), wave'above(-amp)) is begin
    up <= not up;
    sync <= '1'; run <= '1';
  end process;
end architecture;
`

// Applications returns the five benchmark designs in Table 1 order.
func Applications() []*Application {
	return []*Application{
		{
			Name:   "Receiver Module",
			Key:    "receiver",
			Source: ReceiverSource,
			Expected: Row{
				ContinuousLines: 4, Quantities: 4, EventLines: 4, Signals: 2,
				Blocks: 6, States: 4, Datapath: 1,
				Synthesis: "2 amplif., 1 zero-cross det.",
			},
		},
		{
			Name:   "Power Meter",
			Key:    "powermeter",
			Source: PowerMeterSource,
			Expected: Row{
				ContinuousLines: 8, Quantities: 6, EventLines: 3, Signals: 3,
				Blocks: 6, States: 2, Datapath: 2,
				Synthesis: "2 zero-cross det., 2 S/H, 2 ADC",
			},
		},
		{
			Name:   "Missile Solver",
			Key:    "missile",
			Source: MissileSource,
			Expected: Row{
				ContinuousLines: 4, Quantities: 9, EventLines: 0, Signals: 0,
				Blocks: 13, States: 0, Datapath: 0,
				Synthesis: "2 integ., 1 anti-log.amplif., 4 amplif., 1 log.amplif. (reduced)",
			},
		},
		{
			Name:   "Iter.Equat. Solver",
			Key:    "itersolver",
			Source: IterSolverSource,
			Expected: Row{
				ContinuousLines: 1, Quantities: 1, EventLines: 4, Signals: 2,
				Blocks: 6, States: 2, Datapath: 2,
				Synthesis: "3 integ., 1 S/H, 1 diff. amplif.",
			},
			Deviations: []string{
				"synthesizes 2 integrators instead of 3 (the reconstructed dynamics use a stable second-order loop), the difference amplifier is reported in the generic amplifier bucket, and the convergence signal adds 1 zero-cross detector",
			},
		},
		{
			Name:   "Function Generator",
			Key:    "funcgen",
			Source: FuncGenSource,
			Expected: Row{
				ContinuousLines: 2, Quantities: 2, EventLines: 4, Signals: 3,
				Blocks: 4, States: 2, Datapath: 1,
				Synthesis: "1 integ., 1 MUX, 1 Schmitt trigger",
			},
		},
	}
}

// ByKey returns the application with the given key, or nil.
func ByKey(key string) *Application {
	for _, a := range Applications() {
		if a.Key == key {
			return a
		}
	}
	return nil
}

// Keys returns the benchmark keys in Table 1 order.
func Keys() []string {
	apps := Applications()
	keys := make([]string, len(apps))
	for i, a := range apps {
		keys[i] = a.Key
	}
	return keys
}

// Build runs the full front end and synthesis for the application.
type Build struct {
	App *Application
	// Design is the analyzed front end. It is nil when the build was served
	// from a pipeline's on-disk cache (the Table 1 columns remain available
	// through Actual).
	Design *sema.Design
	Module *vhif.Module
	Result *mapper.Result
	Actual Row
	// Cached reports that the synthesis came from the pipeline cache.
	Cached  bool
	AreaUm2 float64
}

// BuildApp parses, analyzes, compiles and synthesizes one application
// through p (nil = pipeline.Default()). Every stage of the build is
// memoized there, so rebuilding an unchanged application is served from
// cache — Table 1 is byte-identical either way. A deadline or cancellation
// of ctx turns the branch-and-bound search anytime: the returned Build
// carries the mapper's best incumbent so far, with Result.Nonoptimal set.
// The front end always runs to completion (it is fast and its output is
// needed for even a truncated synthesis).
func BuildApp(ctx context.Context, p *pipeline.Pipeline, app *Application, opts mapper.Options) (*Build, error) {
	if p == nil {
		p = pipeline.Default()
	}
	cr, err := p.Compile(context.Background(), app.Key+".vhd", app.Source)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: front end: %w", app.Key, err)
	}
	res, cached, err := p.SynthesizeText(ctx, cr.Module, cr.Text, opts)
	if err != nil {
		return nil, fmt.Errorf("corpus %s: synthesize: %w", app.Key, err)
	}
	b := &Build{App: app, Design: cr.Sema, Module: cr.Module, Result: res, Cached: cached}
	b.Actual = Row{
		ContinuousLines: cr.Stats.ContinuousLines,
		Quantities:      cr.Stats.Quantities,
		EventLines:      cr.Stats.EventLines,
		Signals:         cr.Stats.Signals,
		Blocks:          cr.Module.BlockCount(),
		States:          cr.Module.StateCount(),
		Datapath:        cr.Module.DatapathCount(),
		Synthesis:       res.Netlist.Summary(),
	}
	b.AreaUm2 = res.Report.AreaUm2
	return b, nil
}

// BuildAll synthesizes every application through p (nil =
// pipeline.Default()) under a shared context; a deadline bounds the whole
// batch, with each search returning its best incumbent so far.
func BuildAll(ctx context.Context, p *pipeline.Pipeline, opts mapper.Options) ([]*Build, error) {
	var out []*Build
	for _, app := range Applications() {
		b, err := BuildApp(ctx, p, app, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// buildReceiver builds the receiver with the default options — the design
// behind Figures 7 and 8.
func buildReceiver() (*Build, error) {
	return BuildApp(context.Background(), nil, ByKey("receiver"), mapper.DefaultOptions())
}

// figure8Circuit elaborates the receiver's netlist under the Figure 8
// stimulus: line = 1.5 V peak at 1 kHz, local = 0 V.
func figure8Circuit() (*mna.Elaborated, error) {
	b, err := buildReceiver()
	if err != nil {
		return nil, err
	}
	return mna.Elaborate(b.Result.Netlist, map[string]mna.Waveform{
		"line":  func(t float64) float64 { return 1.5 * math.Sin(2*math.Pi*1e3*t) },
		"local": func(float64) float64 { return 0 },
	})
}

// Table1 renders the reproduced Table 1 with the paper's values alongside.
func Table1(builds []*Build) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s | %s | %s | %s\n", "Application",
		"VASS spec (cont/quant/event/sig)", "VHIF (blocks/states/datapath)", "Synthesis results")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	for _, bd := range builds {
		a, e := bd.Actual, bd.App.Expected
		fmt.Fprintf(&b, "%-20s | got %2d/%2d/%2d/%2d  paper %2d/%2d/%2d/%2d | got %2d/%2d/%2d paper %2d/%2d/%2d | %s\n",
			bd.App.Name,
			a.ContinuousLines, a.Quantities, a.EventLines, a.Signals,
			e.ContinuousLines, e.Quantities, e.EventLines, e.Signals,
			a.Blocks, a.States, a.Datapath,
			e.Blocks, e.States, e.Datapath,
			a.Synthesis)
		if len(bd.App.Deviations) > 0 {
			for _, d := range bd.App.Deviations {
				fmt.Fprintf(&b, "%-20s |   note: %s\n", "", d)
			}
		}
	}
	return b.String()
}
