package goldfish

import (
	"goldfish/internal/serve"
	"goldfish/internal/unlearn"
)

// Deletion-request service: run an Engine as a long-lived unlearning
// service. Deletion requests (sample rows, whole classes, whole clients)
// enter a bounded queue and fold into the federation at each round boundary
// as one coalesced batch: one unlearning event, one model restart. Every
// accepted request is tracked as a ticket through queued → applied →
// recovered, with forgetting latency recorded in the serve.* observability
// histograms. See internal/serve for the mechanics and cmd/goldfish-server's
// -serve mode for the HTTP surface.

// DeletionRequest is one deletion request submitted to a DeletionService:
// the deletion value every route to a client's rows builds.
type DeletionRequest = unlearn.Deletion

// The three deletion-request kinds.
const (
	// DeleteSample removes specific rows of one client's original dataset.
	DeleteSample = unlearn.KindSample
	// DeleteClass removes every remaining sample of one label class.
	DeleteClass = unlearn.KindClass
	// DeleteClient removes a participant entirely, unlearning its data.
	DeleteClient = unlearn.KindClient
)

// DeletionTicket is the auditable record of one accepted deletion request.
type DeletionTicket = serve.Ticket

// DeletionService batches deletion requests into per-round unlearning
// steps. Build one with Engine.NewDeletionService.
type DeletionService = serve.Service

// DeletionServiceStats is a point-in-time service summary: queue state,
// request counters and forgetting-latency quantiles.
type DeletionServiceStats = serve.Stats

// ErrDeletionQueueFull is returned by DeletionService.Enqueue when the
// ingest queue is at capacity; retry after roughly one round.
var ErrDeletionQueueFull = serve.ErrQueueFull

// DeletionServiceConfig configures Engine.NewDeletionService.
type DeletionServiceConfig struct {
	// QueueCap bounds the number of queued requests; Enqueue rejects with
	// ErrDeletionQueueFull beyond it. Defaults to 64.
	QueueCap int
	// RecoveryRounds is how many rounds after application a request counts
	// as recovered ("forgotten"). Defaults to 1.
	RecoveryRounds int
	// Observer receives the serve.* instruments; pass the observer the
	// run's context carries so all metrics land in one registry. Nil uses
	// a private metrics-only observer.
	Observer *Observer
}

// NewDeletionService attaches a deletion-request service to the engine's
// round boundary: requests enqueued from any goroutine are coalesced and
// applied between rounds while Run executes. Call the service's Settle
// after the final Run so the last batch's recoveries are counted.
func (e *Engine) NewDeletionService(cfg DeletionServiceConfig) (*DeletionService, error) {
	return serve.New(serve.Config{
		Federation:     e.fed,
		QueueCap:       cfg.QueueCap,
		RecoveryRounds: cfg.RecoveryRounds,
		Observer:       cfg.Observer,
	})
}
