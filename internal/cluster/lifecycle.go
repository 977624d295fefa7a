package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/serve"
)

// This file is the replica lifecycle: the add/remove primitives the
// autoscaler drives, with graceful drain (stop admitting, finish what's
// queued) before a removal. Through all of it, clients see at most the
// documented shed/backpressure protocol: a draining replica is
// invisible to the router and in-flight work completes. A request
// cannot race onto a closing engine: the router and the stealers take a
// replica's in-flight count before checking that it is still active
// (Replica.acquire), and drain waits for that count to reach zero.

// drainPoll is the cadence at which drain re-checks for quiescence.
const drainPoll = 2 * time.Millisecond

// drain blocks until a draining replica's queue and in-flight requests
// have emptied, or the fleet shuts down.
func (f *Fleet) drain(r *Replica) error {
	for r.inflight.Load() != 0 || r.eng.QueueDepth() != 0 {
		select {
		case <-f.quit:
			return serve.ErrClosed
		case <-time.After(drainPoll):
		}
	}
	return nil
}

// addReplica clones the fleet template into a new autoscaled member
// and puts it in service. Rendezvous routing remaps only the keys that
// hash to the newcomer, so existing affinity (and its warm caches)
// survives a scale-up.
func (f *Fleet) addReplica() (*Replica, error) {
	spec := f.template
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.mu.Unlock()
	name := fmt.Sprintf("auto%d:%s/%s", id, spec.Model.Config().Name, spec.Model.Scheme().String())
	r, err := f.buildReplica(spec, name, true)
	if err != nil {
		return nil, err
	}
	if f.stealq != nil {
		f.startStealer(r)
	}
	f.elastic.scaleUps.Add(1)
	return r, nil
}

// removeReplica unregisters r from routing (caller has already drained
// it).
func (f *Fleet) removeReplica(r *Replica) {
	f.mu.Lock()
	defer f.mu.Unlock()
	isR := func(o *Replica) bool { return o == r }
	f.replicas = slices.DeleteFunc(f.replicas, isR)
	for key, reps := range f.byModel {
		if reps = slices.DeleteFunc(reps, isR); len(reps) > 0 {
			f.byModel[key] = reps
		} else {
			delete(f.byModel, key)
		}
	}
}

// scaleDownVictim picks the most recently added autoscaled, active
// replica — only what the autoscaler added is ever removed, so the
// configured fleet floor is structural, not just a number.
func (f *Fleet) scaleDownVictim() *Replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := len(f.replicas) - 1; i >= 0; i-- {
		if r := f.replicas[i]; r.scaled && r.state.Load() == stateActive {
			return r
		}
	}
	return nil
}

// retireReplica drains the victim in the background, then removes and
// closes it. If the fleet shuts down mid-drain the victim is left in
// place for Close to drain normally. The draining transition happens
// synchronously so the caller's next victim scan cannot re-pick it.
func (f *Fleet) retireReplica(r *Replica) {
	if !r.state.CompareAndSwap(stateActive, stateDraining) {
		return // already draining or being retired
	}
	f.elastic.drains.Add(1)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.drain(r); err != nil {
			return // fleet closing; Close owns the engine now
		}
		f.removeReplica(r)
		r.Engine().Close()
		f.elastic.scaleDowns.Add(1)
	}()
}
