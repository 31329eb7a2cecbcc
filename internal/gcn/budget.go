package gcn

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Cooperative supervision. A sweep bounds every cell by its context
// (cancellation) and, optionally, a per-cell time limit. The
// cycle-level engines' event loops check that budget every
// budgetEvery events and return early on their own, so a cut-off cell
// never leaves a goroutine running against the row's scratch: the next
// evaluation on the same row starts from a clean slate. The round
// engine needs no checks — a whole 891-config row costs about 50µs.

// ErrSimTimeout marks a cell whose evaluation ran past the per-cell
// limit armed with PreparedRow.SetBudget. It is a retryable fault: the
// cut-off cell left nothing behind in the row.
var ErrSimTimeout = errors.New("gcn: simulation timed out")

// budgetEvery is the number of loop iterations between budget checks:
// rare enough to vanish next to the events themselves, often enough
// that a canceled wave cell returns within microseconds.
const budgetEvery = 1024

// budget is one prepared row's supervision state. A nil *budget is
// valid and never expires, so unsupervised rows pay one nil check per
// budgetEvery iterations.
type budget struct {
	ctx      context.Context
	perCell  time.Duration
	deadline time.Time
}

// begin starts a cell: it arms the cell's deadline and returns the
// context's error if the sweep is already over.
func (b *budget) begin() error {
	if b != nil && b.perCell > 0 {
		b.deadline = time.Now().Add(b.perCell)
	}
	return b.check()
}

// check returns ctx.Err() once the context has ended and ErrSimTimeout
// once the current cell's deadline has passed.
func (b *budget) check() error {
	if b == nil {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.perCell > 0 && time.Now().After(b.deadline) {
		return fmt.Errorf("%w after %v", ErrSimTimeout, b.perCell)
	}
	return nil
}
