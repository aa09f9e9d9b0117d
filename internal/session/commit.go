package session

import (
	"context"
	"sync"
)

// deferredCommits collects the durability waits of consecutive Steps so a
// multi-stage plan can flush them together. A journal wait fsyncs every
// record written to its file so far, so the first wait of a flush makes
// the whole plan durable and the rest return without an fsync of their
// own: the plan shares one fsync instead of paying one per stage.
type deferredCommits struct {
	mu    sync.Mutex
	waits []func()
}

type deferredCommitsKey struct{}

// DeferCommits derives a context under which Step records its stage-commit
// durability wait instead of blocking on it, and returns the flush that
// invokes every deferred wait and blocks until all records are durable.
// Callers MUST flush before acknowledging the work (the run engine flushes
// before a run turns terminal), preserving the crash contract: an
// acknowledged stage is on disk. Waits registered after a flush are picked
// up by the next flush call; the flush may be called any number of times.
func DeferCommits(ctx context.Context) (context.Context, func()) {
	c := &deferredCommits{}
	return context.WithValue(ctx, deferredCommitsKey{}, c), c.flush
}

// deferredFrom extracts the collector, or nil.
func deferredFrom(ctx context.Context) *deferredCommits {
	c, _ := ctx.Value(deferredCommitsKey{}).(*deferredCommits)
	return c
}

func (c *deferredCommits) add(wait func()) {
	c.mu.Lock()
	c.waits = append(c.waits, wait)
	c.mu.Unlock()
}

// flush invokes every pending wait, one after another: the first wait
// already covers the rest.
func (c *deferredCommits) flush() {
	c.mu.Lock()
	waits := c.waits
	c.waits = nil
	c.mu.Unlock()
	for _, w := range waits {
		w()
	}
}
