// Package vada is a from-scratch reproduction of "The VADA Architecture for
// Cost-Effective Data Wrangling" (Konstantinou et al., SIGMOD 2017): an
// end-to-end, dynamically orchestrated data-wrangling system.
//
// The architecture (Figure 1 of the paper) consists of a knowledge base, a
// Vadalog (Datalog±) reasoner, and a collection of transducers — wrangling
// components whose input dependencies are declared as Vadalog queries over
// the knowledge base — coordinated by a network transducer. Wrangling is
// pay-as-you-go: a fully automatic bootstrap produces an initial result,
// which improves as the user supplies data context (reference data),
// feedback (correctness annotations) and user context (pairwise priorities
// over quality criteria).
//
// # Quickstart
//
//	w := vada.New(vada.WithMinCoverage(2))   // options over production defaults
//	w.RegisterSource(myRelation)            // or RegisterWebSource(...)
//	w.SetTargetSchema(myTargetSchema)
//	if _, err := w.Run(ctx); err != nil {   // step 1: automatic bootstrap
//		...
//	}
//	result := w.ResultClean()
//
// Then pay as you go:
//
//	w.AddDataContext(referenceData)        // step 2: data context
//	w.Run(ctx)
//	w.AddFeedback(items...)                // step 3: feedback
//	w.Run(ctx)
//	w.SetUserContext(priorities)           // step 4: user context
//	w.Run(ctx)
//
// # Sessions
//
// Services host many concurrent wrangling conversations as sessions: each
// wraps one Wrangler, serialises its runs, and records a typed SessionEvent
// per stage; a session manager creates, lists and closes them by ID:
//
//	mgr := vada.NewSessionManager()
//	sess, err := mgr.Create(vada.BuildScenarioWrangler(sc), vada.WithScenario(sc, seed))
//	ev, err := sess.Bootstrap(ctx)
//
// Every stage invocation — named method, HTTP route, or plan step — funnels
// through Session.Apply with a StageRequest (stage name plus JSON payload).
// Long-running stages can execute asynchronously on a run engine, which
// turns each invocation into a pollable, cancellable Run with per-session
// FIFO ordering; a Plan (an ordered list of StageRequests) runs as one
// cancellable multi-stage Run:
//
//	engine := vada.NewRunEngine(vada.WithRunWorkers(8))
//	run, err := engine.Submit(sess.ID(), vada.StageBootstrap, sess.Bootstrap)
//	_, events, cancel := sess.Subscribe(16)
//
// cmd/vada-server exposes this lifecycle as the versioned REST API under
// /api/v1/sessions: the generic stages/{name} route, plans, stage discovery
// under /api/v1/stages, ?async=1 run resources and SSE event streaming.
//
// The exported identifiers are aliases of the internal implementation
// packages: the subset the commands, examples and root tests use.
package vada

import (
	"vada/internal/cfd"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/fusion"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/persist"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

// ---- the system ----------------------------------------------------------

// New creates a Wrangler — knowledge base, reasoner, transducer registry and
// orchestrator behind the pay-as-you-go API — with the standard transducer
// suite, configured by functional options over production defaults.
func New(opts ...core.Option) *core.Wrangler { return core.NewWrangler(opts...) }

// DefaultOptions returns the production defaults of a Wrangler.
func DefaultOptions() core.Options { return core.DefaultOptions() }

// Functional options for New and BuildScenarioWrangler.
var (
	WithMinCoverage = core.WithMinCoverage
	WithNetwork     = core.WithNetwork
)

// ---- sessions -------------------------------------------------------------

// SessionEvent is the typed record of one completed stage.
type SessionEvent = session.Event

// Session manager construction and session options.
var (
	NewSessionManager = session.NewManager
	WithSessionName   = session.WithName
	WithScenario      = session.WithScenario
)

// Session snapshots: stream a session as a versioned, checksummed envelope,
// decode one, and restore it into a manager and run engine.
var (
	ExportSession       = persist.ExportSession
	ReadSessionSnapshot = persist.ReadSessionSnapshot
	RestoreSessionInto  = persist.RestoreInto
)

// ---- stages ----------------------------------------------------------------

// StageRequest is the uniform wire form of a stage invocation; Plan is an
// ordered list of requests executed as one cancellable run.
type (
	StageRequest = session.StageRequest
	Plan         = session.Plan
)

// Names of the four paper stages.
const (
	StageBootstrap   = session.StageBootstrap
	StageDataContext = session.StageDataContext
	StageFeedback    = session.StageFeedback
	StageUserContext = session.StageUserContext
)

// EventTransition marks run-progress events on the session subscriber
// channel.
const EventTransition = session.EventTransition

// ---- async runs ------------------------------------------------------------

// Run is one asynchronous stage or plan invocation on a run engine, with a
// lifecycle queued → running → succeeded | failed | cancelled.
type Run = runs.Run

// Terminal run states.
const (
	RunSucceeded = runs.StateSucceeded
	RunFailed    = runs.StateFailed
	RunCancelled = runs.StateCancelled
)

// Run-engine construction and configuration.
var (
	NewRunEngine   = runs.New
	WithRunWorkers = runs.WithWorkers
	WithRunNotify  = runs.WithNotify
)

// ---- relational model -----------------------------------------------------

// Value is a typed scalar; Tuple and Relation form the relational substrate
// all transducers exchange.
type (
	Value    = relation.Value
	Tuple    = relation.Tuple
	Relation = relation.Relation
)

// Relation constructors and helpers.
var (
	NewSchema   = relation.NewSchema
	NewRelation = relation.New
	NewTuple    = relation.NewTuple
	StringValue = relation.String
	ReadCSV     = relation.ReadCSV
)

// ---- knowledge base and reasoner -------------------------------------------

// Knowledge-base and Vadalog reasoner construction and parsing.
var (
	NewKB          = kb.New
	NewEngine      = vadalog.NewEngine
	ParseVadalog   = vadalog.Parse
	IsLabelledNull = vadalog.IsLabelledNull
)

// ---- transducer framework ---------------------------------------------------

// Dependency and Step let applications extend the wrangling process with
// their own components (§4 of the paper); PreferNetwork is an orchestration
// policy.
type (
	Dependency    = transducer.Dependency
	Step          = transducer.Step
	PreferNetwork = transducer.PreferNetwork
)

// Network-transducer construction and trace rendering.
var (
	NewGenericNetwork = transducer.NewGenericNetwork
	TraceString       = transducer.TraceString
)

// ---- matching, mapping, quality, fusion -------------------------------------

// Component-level types for applications driving the substrates directly.
type (
	Match         = match.Match
	Mapping       = mapping.Mapping
	FusionOptions = fusion.Options
)

// Component-level entry points.
var (
	MatchSchemas         = match.MatchSchemas
	MatchInstances       = match.MatchInstances
	GenerateMappings     = mapping.Generate
	ExecuteMapping       = mapping.Execute
	MineCFDs             = cfd.Mine
	RepairWithReference  = cfd.RepairWithReference
	DefaultRepairOptions = cfd.DefaultRepairOptions
	DetectDuplicates     = fusion.DetectDuplicates
	Fuse                 = fusion.Fuse
	BlockByAttr          = fusion.BlockByAttr
	DefaultPairScorer    = fusion.DefaultScorer
)

// ---- user context (MCDA) ----------------------------------------------------

// UserContext carries pairwise priorities; Criterion identifies a quality
// feature of the result.
type (
	UserContext = mcda.Model
	Criterion   = mcda.Criterion
)

// VeryStrongly is a step of the paper's verbal importance scale (Figure
// 2(d)).
const VeryStrongly = mcda.VeryStrongly

// User-context construction.
var (
	NewUserContext = mcda.NewModel
	ParseStrength  = mcda.ParseStrength
)

// ---- web extraction ------------------------------------------------------------

// Extraction entry points, including the demonstration portal template.
var (
	GeneratePages        = extract.GeneratePages
	InduceWrapper        = extract.InduceWrapper
	BootstrapAnnotations = extract.BootstrapAnnotations
	RightmoveTemplate    = extract.RightmoveTemplate
)

// CanonicalPostcode normalises UK-style postcodes (case and spacing).
var CanonicalPostcode = datagen.CanonicalPostcode

// ---- demonstration scenario ------------------------------------------------------

// ScenarioConfig controls generation of the paper's real-estate
// demonstration data.
type ScenarioConfig = datagen.Config

// Scenario generation and the pay-as-you-go experiment harness (§3).
var (
	GenerateScenario         = datagen.Generate
	DefaultScenarioConfig    = datagen.DefaultConfig
	TargetSchema             = datagen.TargetSchema
	BuildScenarioWrangler    = core.BuildScenarioWrangler
	CrimeAnalysisUserContext = core.CrimeAnalysisUserContext
	SizeAnalysisUserContext  = core.SizeAnalysisUserContext
	OracleFeedback           = core.OracleFeedback
	RunPayAsYouGo            = core.RunPayAsYouGo
	DefaultPayAsYouGoConfig  = core.DefaultPayAsYouGoConfig
	FormatStages             = core.FormatStages
)
