package sim

// Call runs fn on the engine goroutine at the current virtual time and
// waits for its result. control indicates whether the call constitutes
// control plane activity (and therefore forces FTI mode).
//
// Call is how emulated control plane processes query simulated state, e.g.
// an OpenFlow agent answering a FLOW stats request reads the simulated
// flow table and flow bytes through a Call.
//
// The second return value is false when the engine has already finished,
// in which case the zero value is returned. Call must never be invoked
// from the engine goroutine itself (it would deadlock); event callbacks
// can read state directly.
func Call[T any](e *Engine, control bool, fn func() T) (T, bool) {
	ch := make(chan T, 1)
	wrapped := external{
		control: control,
		fn:      func() { ch <- fn() },
	}
	if !e.post(wrapped) {
		var zero T
		return zero, false
	}
	select {
	case v := <-ch:
		return v, true
	case <-e.done:
		// The engine may have executed the fn concurrently with
		// shutting down; prefer the value if present.
		select {
		case v := <-ch:
			return v, true
		default:
			var zero T
			return zero, false
		}
	}
}
