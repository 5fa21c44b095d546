// Package gid provides goroutine identity for ZebraConf's ConfAgent.
//
// The agent must answer "which node's code is executing on the calling
// thread?" (paper §6.1). Java ZebraConf keys its threadContext by thread
// ID; the Go port keys it by goroutine ID. Go deliberately hides goroutine
// IDs, so ID returns the number the runtime prints in stack traces, parsed
// from runtime.Stack. That is a stack walk under the runtime's print lock,
// microseconds per call, so the agent takes the ID only at init-window
// edges, refToClone calls, spawns, blank-constructor calls and in the
// thread-only ablation. It never takes it on a read under the default
// strategy, which maps reads by the configuration object's owner. The ID is used for bookkeeping, never for
// synchronization.
package gid

import (
	"bytes"
	"runtime"
	"strconv"
)

// ID returns the current goroutine's ID as printed by the Go runtime in
// stack traces ("goroutine N [running]:").
func ID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return parseGoroutineID(buf[:n])
}

// parseGoroutineID extracts N from a stack trace beginning
// "goroutine N [". It returns 0 if the header is malformed, which the Go
// runtime never produces in practice.
func parseGoroutineID(stack []byte) uint64 {
	const prefix = "goroutine "
	if !bytes.HasPrefix(stack, []byte(prefix)) {
		return 0
	}
	stack = stack[len(prefix):]
	end := bytes.IndexByte(stack, ' ')
	if end < 0 {
		return 0
	}
	id, err := strconv.ParseUint(string(stack[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}
