// Package gill is a from-scratch implementation of GILL, the
// redundancy-aware BGP data collection platform of "The Next Generation of
// BGP Data Collection Platforms" (SIGCOMM 2024): an overshoot-and-discard
// collector that peers with as many vantage points as possible and
// discards redundant updates at acquisition using two data-driven sampling
// components — correlation-group/reconstitution-power analysis of updates
// (Component #1) and topological-feature-based anchor-VP selection
// (Component #2) — compiled into coarse (VP, prefix) filters.
//
// The package re-exports the system's public surface: the BGP-4 speaker
// and MRT codec substrates, the mini-Internet simulator used for
// evaluation, the sampling pipeline, the filter engine, and the collection
// daemon and orchestrator. The examples/ directory demonstrates end-to-end
// use; the repository-root benchmarks regenerate every table and figure of
// the paper.
package gill

import (
	"math/rand"

	"repro/internal/anchors"
	"repro/internal/archive"
	"repro/internal/bmp"
	"repro/internal/core"
	"repro/internal/correlation"
	"repro/internal/daemon"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/update"
	"repro/internal/usecases"
	"repro/internal/validity"
)

// Version identifies this implementation.
const Version = "1.0.0"

// Update is the canonical stored BGP update u(v, t, p, L, Lw, C, Cw).
type Update = update.Update

// Definition selects one of the paper's redundancy definitions (§4.2).
type Definition = update.Definition

// Redundancy definitions.
const (
	Def1 = update.Def1
	Def2 = update.Def2
	Def3 = update.Def3
)

// Topology is an AS-level Internet topology with business relationships.
type Topology = topology.Topology

// GenerateTopology builds an artificial AS topology with the paper's
// statistical parameters (§3.1) for n ASes.
func GenerateTopology(n int, seed int64) *Topology {
	return topology.Generate(topology.DefaultGenConfig(n), rand.New(rand.NewSource(seed)))
}

// Simulator is the C-BGP-equivalent mini-Internet simulator.
type Simulator = simulate.Sim

// NewSimulator builds a simulator over a topology.
func NewSimulator(topo *Topology, seed int64) *Simulator {
	return simulate.New(topo, seed)
}

// Collector materializes the view of a VP deployment over the simulator
// and converts routing events to BGP update streams.
type Collector = simulate.Collector

// Event is one routing event replayed by a Collector.
type Event = simulate.Event

// SimOrigin is one announcement source for a route computation; a
// non-empty Tail models a forged-origin hijack.
type SimOrigin = simulate.Origin

// NewCollector deploys vantage points in the given ASes.
func NewCollector(sim *Simulator, vpASes []uint32) *Collector {
	return simulate.NewCollector(sim, vpASes, simulate.DefaultCollectorConfig())
}

// Config collects the sampling pipeline's tunables.
type Config = core.Config

// DefaultConfig returns the paper's calibrated parameters (100 s
// correlation window, RP stop 0.94, γ=10%, 50 events per stratification
// cell, coarse filters).
func DefaultConfig() Config { return core.DefaultConfig() }

// TrainingData is one training window: the mirrored update stream, per-VP
// baseline RIBs, and AS categories.
type TrainingData = core.TrainingData

// Model is a trained GILL sampling model: Component #1's redundancy
// result, Component #2's anchors, and the compiled filters.
type Model = core.Model

// Train runs the full sampling pipeline (§6–§7) on a training window.
func Train(data TrainingData, cfg Config, seed int64) *Model {
	return core.Train(data, cfg, rand.New(rand.NewSource(seed)))
}

// FilterSet is a compiled priority-ordered filter set (§7).
type FilterSet = filter.Set

// Granularity selects filter match precision.
type Granularity = filter.Granularity

// Filter granularities.
const (
	GranVPPrefix         = filter.GranVPPrefix
	GranVPPrefixPath     = filter.GranVPPrefixPath
	GranVPPrefixPathComm = filter.GranVPPrefixPathComm
)

// Sampler selects a subset of an update stream under a budget.
type Sampler = sampling.Sampler

// Evaluator is one of the §10 benchmark use cases.
type Evaluator = usecases.Evaluator

// UseCases returns the five benchmark evaluators; isAction classifies
// action-community values (use simulate.IsActionCommunity on simulated
// streams).
func UseCases(isAction func(uint32) bool) []Evaluator {
	return usecases.All(isAction)
}

// Daemon is the collection daemon (§8): a BGP listener that applies
// filters and archives retained updates in MRT.
type Daemon = daemon.Daemon

// DaemonConfig parameterizes a Daemon.
type DaemonConfig = daemon.Config

// NewDaemon builds a collection daemon.
func NewDaemon(cfg DaemonConfig) *Daemon { return daemon.New(cfg) }

// Orchestrator is GILL's control plane (§8–§9): peering workflow,
// scheduled component refresh, and filter distribution.
type Orchestrator = orchestrator.Orchestrator

// NewOrchestrator builds an orchestrator with the given ownership
// verifier (nil accepts everyone — testing only).
func NewOrchestrator(verifier orchestrator.OwnershipVerifier) *Orchestrator {
	return orchestrator.New(verifier, nil)
}

// RedundantFraction measures the share of updates redundant with another
// update under a definition (§4.2).
func RedundantFraction(def Definition, us []*Update) float64 {
	return update.RedundantFraction(def, us)
}

// Annotate fills the implicit-withdrawal sets (Lw, Cw) of a stream by
// replaying per-(VP, prefix) history.
func Annotate(us []*Update) { update.Annotate(us) }

// CorrelationConfig re-exports Component #1's parameters.
type CorrelationConfig = correlation.Config

// AnchorSelectConfig re-exports Component #2's selection parameters.
type AnchorSelectConfig = anchors.SelectConfig

// Pipeline is the sharded, backpressure-aware ingest pipeline of the
// collection path; the Daemon composes its own from the built-in stages,
// and offline tools can build custom chains.
type Pipeline = pipeline.Pipeline

// PipelineConfig parameterizes a Pipeline.
type PipelineConfig = pipeline.Config

// Stage is one pipeline processing step over batches of updates.
type Stage = pipeline.Stage

// NewPipeline builds a pipeline over a stage chain; call Start to launch
// its shard workers.
func NewPipeline(cfg PipelineConfig, stages ...Stage) *Pipeline {
	return pipeline.New(cfg, stages...)
}

// Overflow policies for a full pipeline shard queue.
const (
	OverflowBlock      = pipeline.Block
	OverflowDropNewest = pipeline.DropNewest
	OverflowDropOldest = pipeline.DropOldest
)

// MetricsRegistry is a named collection of counters, gauges, and
// histograms; every pipeline stage exports its accounting through one.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ROARegistry validates route origins (RFC 6811); plug into a Daemon via
// a validity.Checker (§14 fake-data defenses).
type ROARegistry = validity.Registry

// NewROARegistry returns an empty ROA registry.
func NewROARegistry() *ROARegistry { return validity.NewRegistry() }

// Archive is the rotating MRT database of §9. Wire it to a Daemon via
// DaemonConfig.RecordSink.
type Archive = archive.Store

// OpenArchive opens (or creates) an archive directory.
func OpenArchive(dir string) (*Archive, error) {
	return archive.Open(dir, archive.DefaultRotation)
}

// BMPStation ingests RFC 7854 BMP feeds through the same filters as BGP
// peerings (§14's generalization).
type BMPStation = bmp.Station

// StreamHub is the serving plane's mass fan-out: encode-once delivery of
// the retained feed to many concurrent subscribers, each with its own
// filter expression and rate limit, slow ones evicted. Wire it to a
// Daemon via DaemonConfig.Publish; serve it over HTTP with
// (*StreamHub).StreamHandler.
type StreamHub = stream.Hub

// StreamConfig parameterizes a StreamHub.
type StreamConfig = stream.Config

// StreamFilter is a compiled subscriber filter expression (prefix,
// containment, VP, origin, community, AS-path regex, update type).
type StreamFilter = stream.Filter

// NewStreamHub starts a fan-out hub.
func NewStreamHub(cfg StreamConfig) *StreamHub { return stream.NewHub(cfg) }

// ParseStreamFilter compiles a filter expression such as
// `within=203.0.113.0/24 vp=vp65001 type=announce`.
func ParseStreamFilter(expr string) (*StreamFilter, error) { return stream.ParseFilter(expr) }

// IndexService answers time/prefix/VP range queries and reconstructs
// routing state ("RIB at time T") from a daemon's record journal through
// its skip-index; (*IndexService).Handler serves the same queries as an
// HTTP JSON API.
type IndexService = index.Service

// OpenIndex opens the index over a journal directory, syncing it with
// the segments on disk.
func OpenIndex(dir string) (*IndexService, error) { return index.NewService(dir, nil) }
