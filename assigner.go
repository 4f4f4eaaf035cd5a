package tcrowd

import (
	"errors"

	"tcrowd/internal/assign"
	"tcrowd/internal/core"
)

// AssignPolicy selects the task-assignment strategy of an Assigner.
type AssignPolicy int

const (
	// PolicyStructureAware uses structure-aware information gain (the
	// paper's default, Sec. 5.2).
	PolicyStructureAware AssignPolicy = iota
	// PolicyInherent uses inherent information gain (Sec. 5.1).
	PolicyInherent
	// PolicyEntropy assigns the cell with the highest uniform entropy.
	PolicyEntropy
	// PolicyRandom assigns random unanswered cells.
	PolicyRandom
	// PolicyLooping assigns cells round-robin.
	PolicyLooping
)

// AssignOptions configures an Assigner.
type AssignOptions struct {
	// Policy is the selection strategy (default PolicyStructureAware).
	Policy AssignPolicy
	// Infer tunes the embedded truth inference.
	Infer InferOptions
	// Seed drives random tie-breaking.
	Seed int64
}

// Assigner is the online task-assignment engine: feed it the answers
// collected so far (Observe), then ask which cells to hand to each arriving
// worker (Next). It embeds T-Crowd truth inference, so it also exposes the
// current truth estimates.
type Assigner struct {
	table *Table
	sys   *assign.TCrowdSystem
	log   *AnswerLog
}

// ErrNotObserved is returned by Next before the first Observe call.
var ErrNotObserved = errors.New("tcrowd: assigner has no observations; call Observe first")

// NewAssigner builds an assignment engine for the given table.
func NewAssigner(t *Table, opts AssignOptions) *Assigner {
	sys := assign.NewTCrowdSystem(opts.Seed)
	co := opts.Infer.toCore()
	if co.MaxIter == 0 {
		co.MaxIter = 12 // online refreshes need responsiveness, not full convergence
	}
	sys.Opts = co
	switch opts.Policy {
	case PolicyInherent:
		sys.Policy = assign.InherentIG{}
	case PolicyEntropy:
		sys.Policy = assign.Entropy{}
	case PolicyRandom:
		sys.Policy = assign.Random{}
	case PolicyLooping:
		sys.Policy = &assign.Looping{}
	default:
		sys.Policy = assign.StructureIG{}
	}
	return &Assigner{table: t, sys: sys}
}

// Observe refreshes the engine with the answers collected so far. Call it
// after every batch of submissions (running it on every single answer is
// unnecessary; the paper refreshes per incoming worker).
func (a *Assigner) Observe(log *AnswerLog) error {
	if err := a.sys.Refresh(a.table, log); err != nil && err != core.ErrNoAnswers {
		return err
	}
	a.log = log
	return nil
}

// Next returns up to k cells to assign to worker u, best first. It returns
// ErrNotObserved before the first Observe.
func (a *Assigner) Next(u WorkerID, k int) ([]Cell, error) {
	if a.log == nil {
		return nil, ErrNotObserved
	}
	cells := a.sys.Select(u, k, a.log)
	return cells, nil
}

// EstimatedTruth returns the engine's current truth estimates (nil before
// the first informative Observe).
func (a *Assigner) EstimatedTruth() [][]Value {
	est := a.sys.Estimates()
	if est == nil {
		return nil
	}
	return [][]Value(est)
}

// InformationGain scores one cell for one worker with the inherent
// information gain of Eq. 6 — exposed for clients building custom
// schedulers on top of the model. Returns 0 before the first informative
// Observe.
func (a *Assigner) InformationGain(u WorkerID, c Cell) float64 {
	m := a.model()
	if m == nil {
		return 0
	}
	return assign.InfoGain(&m.Posterior, u, c)
}

func (a *Assigner) model() *core.Model { return a.sys.Model() }
