package server

import (
	"encoding/base64"
	"fmt"

	"sunder"
)

// This file defines the service's JSON wire types. They are exported so
// the benchmark's HTTP client (bench/) and external clients share one
// schema with the handlers.

// PatternJSON is one rule on the wire.
type PatternJSON struct {
	Expr string `json:"expr"`
	Code int32  `json:"code"`
}

// OptionsJSON mirrors sunder.Options. FIFO is a pointer so that an absent
// field keeps the library default (on), matching DefaultOptions. The
// handlers ignore fields they do not know, so a client that still sends the
// retired "prune" compiles as if it had not.
type OptionsJSON struct {
	Rate            int   `json:"rate,omitempty"`
	ReportColumns   int   `json:"report_columns,omitempty"`
	MetadataBits    int   `json:"metadata_bits,omitempty"`
	FIFO            *bool `json:"fifo,omitempty"`
	SummarizeOnFull bool  `json:"summarize_on_full,omitempty"`
	Minimize        bool  `json:"minimize,omitempty"`
	Prefilter       bool  `json:"prefilter,omitempty"`
	// Backend selects the execution backend ("auto", "nfa" or "dfa") for
	// every scan of the ruleset; empty keeps the library default (nfa), and
	// any other name fails the PUT with 422, as "dfa" does when the
	// configuration does not support the lazy DFA. A scan shards across
	// workers with ?parallel=1 on any backend.
	Backend string `json:"backend,omitempty"`
}

// Options resolves the wire form against the library defaults.
func (o *OptionsJSON) Options() sunder.Options {
	opts := sunder.DefaultOptions()
	if o == nil {
		return opts
	}
	if o.Rate != 0 {
		opts.Rate = o.Rate
	}
	if o.ReportColumns != 0 {
		opts.ReportColumns = o.ReportColumns
	}
	if o.MetadataBits != 0 {
		opts.MetadataBits = o.MetadataBits
	}
	if o.FIFO != nil {
		opts.FIFO = *o.FIFO
	}
	opts.SummarizeOnFull = o.SummarizeOnFull
	opts.Minimize = o.Minimize
	if o.Prefilter {
		opts.Prefilter = sunder.PrefilterOn
	}
	opts.Backend = o.Backend
	return opts
}

// RulesetRequest is the PUT /rulesets/{id} body.
type RulesetRequest struct {
	Patterns []PatternJSON `json:"patterns"`
	Options  *OptionsJSON  `json:"options,omitempty"`
}

// SunderPatterns converts the wire patterns to the library type.
func (r *RulesetRequest) SunderPatterns() []sunder.Pattern {
	out := make([]sunder.Pattern, len(r.Patterns))
	for i, p := range r.Patterns {
		out[i] = sunder.Pattern{Expr: p.Expr, Code: p.Code}
	}
	return out
}

// RulesetInfo is the GET/PUT /rulesets/{id} response: the compiled
// configuration plus serving statistics.
type RulesetInfo struct {
	ID       string        `json:"id"`
	Patterns int           `json:"patterns"`
	Options  *OptionsJSON  `json:"options,omitempty"`
	Info     InfoJSON      `json:"info"`
	Pool     PoolStatsJSON `json:"pool"`
	Scans    int64         `json:"scans"`
	Bytes    int64         `json:"bytes"`
}

// InfoJSON mirrors sunder.Info. PrefilterStrategy is present when the
// ruleset was compiled with the prefilter option ("memchr", "shift",
// "swar", "aho-corasick", or "off (<reason>)" when the rule set yields no
// usable literal); PrefilterLiterals lists the extracted required literals.
type InfoJSON struct {
	Rate              int      `json:"rate"`
	ByteStates        int      `json:"byte_states"`
	DeviceStates      int      `json:"device_states"`
	PUs               int      `json:"pus"`
	ReportColumns     int      `json:"report_columns"`
	RegionCapacity    int      `json:"region_capacity"`
	PrunedStates      int      `json:"pruned_states"`
	MergedStates      int      `json:"merged_states,omitempty"`
	SymbolClasses     int      `json:"symbol_classes,omitempty"`
	PrefilterStrategy string   `json:"prefilter_strategy,omitempty"`
	PrefilterLiterals []string `json:"prefilter_literals,omitempty"`
	// Backend is the resolved execution backend, "nfa" or "dfa"; DFAStates
	// is the lazy DFA's resident state count (dfa backend only).
	Backend   string `json:"backend,omitempty"`
	DFAStates int    `json:"dfa_states,omitempty"`
}

func infoJSON(i sunder.Info) InfoJSON {
	out := InfoJSON{
		Rate:           i.Rate,
		ByteStates:     i.ByteStates,
		DeviceStates:   i.DeviceStates,
		PUs:            i.PUs,
		ReportColumns:  i.ReportColumns,
		RegionCapacity: i.RegionCapacity,
		PrunedStates:   i.PrunedStates,
		MergedStates:   i.MergedStates,
		SymbolClasses:  i.SymbolClasses,
		Backend:        i.Backend,
		DFAStates:      i.DFAStates,
	}
	if i.PrefilterStrategy != "off" {
		out.PrefilterStrategy = i.PrefilterStrategy
		out.PrefilterLiterals = i.PrefilterLiterals
	}
	return out
}

// PoolStatsJSON snapshots a ruleset's admission: Size requests may run on
// its engine at once, and Idle of those slots are free.
type PoolStatsJSON struct {
	Size int `json:"size"`
	Idle int `json:"idle"`
	// Queue is the waiter bound beyond which acquisition fails fast (503).
	Queue int `json:"queue"`
}

// ScanRequest is the JSON form of the POST /rulesets/{id}/scan body: many
// independent inputs scanned as one batch. Encoding selects how Inputs is
// decoded: "base64" (default) or "text".
//
// The accepted language is exactly what json.NewDecoder(body).Decode into
// a ScanRequest followed by DecodeInputs accepts, with the same error
// texts. The server decodes the common shape, {"inputs":[...],"encoding":
// ...} with plain ASCII strings, in one pass into a pooled buffer, and
// hands every other body to that decoder.
type ScanRequest struct {
	Inputs   []string `json:"inputs"`
	Encoding string   `json:"encoding,omitempty"`
}

// DecodeInputs materializes the request's byte inputs.
func (r *ScanRequest) DecodeInputs() ([][]byte, error) {
	out := make([][]byte, len(r.Inputs))
	for i, in := range r.Inputs {
		switch r.Encoding {
		case "", "base64":
			b, err := base64.StdEncoding.DecodeString(in)
			if err != nil {
				return nil, fmt.Errorf("inputs[%d]: %w", i, err)
			}
			out[i] = b
		case "text":
			out[i] = []byte(in)
		default:
			return nil, fmt.Errorf("unknown encoding %q (want base64 or text)", r.Encoding)
		}
	}
	return out, nil
}

// EncodeInputs is the client-side inverse of DecodeInputs.
func EncodeInputs(inputs [][]byte) ScanRequest {
	req := ScanRequest{Inputs: make([]string, len(inputs))}
	for i, in := range inputs {
		req.Inputs[i] = base64.StdEncoding.EncodeToString(in)
	}
	return req
}

// MatchJSON is one rule match on the wire.
type MatchJSON struct {
	Position int64 `json:"position"`
	Code     int32 `json:"code"`
}

// StatsJSON mirrors sunder.Stats. PrefilterWindows, SkippedCycles and
// PrefilterStoppedAt are non-zero only on prefiltered scans: candidate
// windows executed, device cycles proven match-free without execution, and
// the input byte at which the scan stopped looking for literals.
type StatsJSON struct {
	KernelCycles       int64 `json:"kernel_cycles"`
	StallCycles        int64 `json:"stall_cycles"`
	Flushes            int64 `json:"flushes"`
	Reports            int64 `json:"reports"`
	ReportCycles       int64 `json:"report_cycles"`
	PrefilterWindows   int64 `json:"prefilter_windows,omitempty"`
	SkippedCycles      int64 `json:"skipped_cycles,omitempty"`
	PrefilterStoppedAt int64 `json:"prefilter_stopped_at,omitempty"`
}

func statsJSON(s sunder.Stats) StatsJSON {
	return StatsJSON(s)
}

func matchesJSON(ms []sunder.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{Position: m.Position, Code: m.Code}
	}
	return out
}

// ScanResultJSON is one input's scan outcome.
type ScanResultJSON struct {
	Matches []MatchJSON `json:"matches"`
	Stats   StatsJSON   `json:"stats"`
}

// ScanResponse is the POST /rulesets/{id}/scan response; Results[i]
// corresponds to the request's inputs[i] (a raw-body scan has one result).
type ScanResponse struct {
	Ruleset string           `json:"ruleset"`
	Results []ScanResultJSON `json:"results"`
}

// StreamEvent is one NDJSON line of the streaming endpoint: either a match
// (Match non-nil) or the terminal summary line (Done true). Reason is set
// on early termination ("draining" on graceful shutdown).
type StreamEvent struct {
	Match  *MatchJSON `json:"match,omitempty"`
	Done   bool       `json:"done,omitempty"`
	Reason string     `json:"reason,omitempty"`
	Bytes  int64      `json:"bytes,omitempty"`
	Stats  *StatsJSON `json:"stats,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// LatencySLOJSON is a server-side latency summary: nearest-rank quantiles
// estimated from a log-bucket duration histogram (relative error bounded
// by one bucket width, ~29% at 9 buckets per decade), plus the exact
// count, mean and max. All durations are nanoseconds.
type LatencySLOJSON struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
	// sumNS is the exact sum the mean divides, for the text view's _sum
	// line; it is not on the wire.
	sumNS int64
}

// ShedJSON counts requests shed by reason: capacity (pool queue full),
// deadline (timed out waiting for an engine), draining (graceful
// shutdown in progress).
type ShedJSON struct {
	Capacity int64 `json:"capacity"`
	Deadline int64 `json:"deadline"`
	Draining int64 `json:"draining"`
}

// RulesetMetricsJSON is one ruleset's request-level serving metrics.
// PoolWaitShare is the fraction of served wall-clock time spent waiting
// for a pooled engine — the queueing-delay share of server-side latency.
type RulesetMetricsJSON struct {
	Scans         int64          `json:"scans"`
	Bytes         int64          `json:"bytes"`
	Matches       int64          `json:"matches"`
	Backend       string         `json:"backend,omitempty"`
	Latency       LatencySLOJSON `json:"latency"`
	PoolWait      LatencySLOJSON `json:"pool_wait"`
	PoolWaitShare float64        `json:"pool_wait_share"`
	Shed          ShedJSON       `json:"shed"`
}

// BackendMetricsJSON is one execution backend's service-level scan volume.
// Share is its fraction of all served scans; 0 (never NaN) when the
// service has served none.
type BackendMetricsJSON struct {
	Scans int64   `json:"scans"`
	Share float64 `json:"share"`
}

// ServiceMetricsJSON mirrors the service-level counters of the text view.
type ServiceMetricsJSON struct {
	Requests      int64 `json:"requests"`
	Scans         int64 `json:"scans"`
	ScanBytes     int64 `json:"scan_bytes"`
	Matches       int64 `json:"matches"`
	Errors        int64 `json:"errors"`
	ActiveStreams int64 `json:"active_streams"`
	Rulesets      int   `json:"rulesets"`
}

// CompileCacheJSON mirrors sunder.CompileCacheStats.
type CompileCacheJSON struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	HitNS    int64 `json:"hit_ns_total"`
	MissNS   int64 `json:"miss_ns_total"`
}

// SpanStatsJSON reports the span buffer's occupancy (present only when
// tracing is enabled).
type SpanStatsJSON struct {
	Buffered int   `json:"buffered"`
	Dropped  int64 `json:"dropped"`
}

// PrefilterMetricsJSON aggregates the literal-prefilter counters across
// every prefiltered scan the server has run: scans filtered, literal
// occurrences found before scanning stopped, candidate windows executed,
// the split of device cycles into scanned (executed) and skipped (proven
// match-free), and the scans that stopped looking for literals.
type PrefilterMetricsJSON struct {
	Scans         int64 `json:"scans"`
	Hits          int64 `json:"hits"`
	Windows       int64 `json:"windows"`
	ScannedCycles int64 `json:"scanned_cycles"`
	SkippedCycles int64 `json:"skipped_cycles"`
	Bailouts      int64 `json:"bailouts"`
}

// MinimizeMetricsJSON aggregates certified-minimization results across the
// resident rulesets compiled with Options.Minimize: how many rulesets, and
// the total states the pipeline pruned and merged for them (present only
// when at least one such ruleset is resident).
type MinimizeMetricsJSON struct {
	Rulesets     int   `json:"rulesets"`
	PrunedStates int64 `json:"pruned_states"`
	MergedStates int64 `json:"merged_states"`
}

// MetricsJSON is the GET /metrics?format=json response.
type MetricsJSON struct {
	Service      ServiceMetricsJSON            `json:"service"`
	CompileCache CompileCacheJSON              `json:"compile_cache"`
	Compile      LatencySLOJSON                `json:"compile"`
	Rulesets     map[string]RulesetMetricsJSON `json:"rulesets"`
	Backends     map[string]BackendMetricsJSON `json:"backends"`
	Minimize     *MinimizeMetricsJSON          `json:"minimize,omitempty"`
	Prefilter    *PrefilterMetricsJSON         `json:"prefilter,omitempty"`
	Spans        *SpanStatsJSON                `json:"spans,omitempty"`
}
