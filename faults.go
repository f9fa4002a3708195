package sunder

import "sunder/internal/faults"

// FaultPolicy configures fault injection and recovery on the simulated
// device. Sunder's subarrays hold configuration and report data in the same
// 8T cells, so memory faults corrupt matching and reporting in place; with
// a policy set, the engine runs every scan under a recovery guard that
// detects corruption (configuration scrubbing, report-entry parity, region
// audits, a shadow functional simulator) and transparently rewinds and
// re-executes from periodic checkpoints — quarantining persistently
// defective processing units onto spares.
//
// The zero value of the injection fields disables injection, leaving a
// detection-only guard; zero recovery fields select the defaults.
type FaultPolicy struct {
	// Seed makes the fault process reproducible.
	Seed int64
	// MatchFlipRate and ReportFlipRate are per-cycle probabilities of one
	// transient bit flip in the match rows / a resident report entry.
	MatchFlipRate  float64
	ReportFlipRate float64
	// StuckXbarFaults plants this many permanent stuck-at crossbar-switch
	// defects at random locations.
	StuckXbarFaults int
	// DrainDropRate is the probability a FIFO-drained report row is
	// silently lost before reaching the host.
	DrainDropRate float64
	// CheckpointInterval is the recovery window in device cycles (default
	// 256); MaxRetries caps re-executions of one window before a PU is
	// quarantined (default 3); BackoffCycles is the first retry's stall
	// penalty, doubling per retry (default 64); SparePUs is the quarantine
	// budget (default 8; each quarantine relocates a 4-PU cluster).
	CheckpointInterval int
	MaxRetries         int
	BackoffCycles      int
	SparePUs           int
}

// DefaultFaultPolicy returns the default recovery parameters with no
// injected faults.
func DefaultFaultPolicy() FaultPolicy {
	p := faults.DefaultPolicy()
	return FaultPolicy{
		CheckpointInterval: p.CheckpointInterval,
		MaxRetries:         p.MaxRetries,
		BackoffCycles:      p.BackoffCycles,
		SparePUs:           p.SparePUs,
	}
}

// internal converts to the internal policy type.
func (p FaultPolicy) internal() faults.Policy {
	return faults.Policy{
		Seed:               p.Seed,
		MatchFlipRate:      p.MatchFlipRate,
		ReportFlipRate:     p.ReportFlipRate,
		StuckXbarFaults:    p.StuckXbarFaults,
		DrainDropRate:      p.DrainDropRate,
		CheckpointInterval: p.CheckpointInterval,
		MaxRetries:         p.MaxRetries,
		BackoffCycles:      p.BackoffCycles,
		SparePUs:           p.SparePUs,
	}
}

// FaultReport summarizes the fault activity of one guarded scan.
type FaultReport struct {
	// Injected counts fault manifestations (flips, stuck-at assertions,
	// dropped drain rows); Detected counts detected manifestations.
	Injected int64
	Detected int64
	// Recoveries counts checkpoint windows that committed after at least
	// one rewind; QuarantinedPUs lists PUs retired onto spares.
	Recoveries     int64
	QuarantinedPUs []int
	// Slowdown is total cycles spent (committed, re-executed, backoff)
	// over committed cycles — the price of recovery.
	Slowdown float64
}

// SetFaultPolicy arms (or, with nil, disarms) fault injection and recovery
// for subsequent scans and streams. The fault process is created eagerly so
// permanent defects and quarantine state persist across scans on the same
// engine.
func (e *Engine) SetFaultPolicy(p *FaultPolicy) error {
	if p == nil {
		e.faultPol = nil
		e.injector = nil
		e.machine.AttachFaults(nil)
		return nil
	}
	pol := p.internal()
	inj, err := faults.NewInjector(pol)
	if err != nil {
		return err
	}
	e.faultPol = &pol
	e.injector = inj
	return nil
}

// FaultPolicySet reports whether a fault policy is armed.
func (e *Engine) FaultPolicySet() bool { return e.injector != nil }

// newGuard wraps the engine's current machine in a recovery guard, carrying
// any attached telemetry collector over to it.
func (e *Engine) newGuard() (*faults.Guard, error) {
	tel := e.machine.Telemetry()
	g, err := faults.NewGuard(e.machine, e.nibble, e.machinePlace, *e.faultPol, e.injector)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		g.AttachTelemetry(tel)
	}
	return g, nil
}

// adoptGuard takes over the guard's (possibly quarantine-rebuilt) machine
// and placement as the engine's current device.
func (e *Engine) adoptGuard(g *faults.Guard) {
	e.machine = g.Machine()
	e.machinePlace = g.Placement()
}

// faultReport summarizes a guard's activity so far.
func faultReport(fstats faults.Stats) *FaultReport {
	return &FaultReport{
		Injected:       fstats.Injected.Total(),
		Detected:       fstats.Detected(),
		Recoveries:     fstats.Recoveries,
		QuarantinedPUs: fstats.QuarantinedPUs,
		Slowdown:       fstats.Slowdown(),
	}
}
