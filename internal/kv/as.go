package kv

import "pmnet/internal/unwrap"

// As reports whether e — or any engine it decorates, found by walking the
// `Unwrap() Engine` chain — provides capability T, returning the outermost
// provider. Probe optional engine interfaces through this rather than a
// direct type assertion so a future instrumenting/validating wrapper cannot
// silently hide them (the failure mode server.As exists to prevent for
// handlers).
func As[T any](e Engine) (T, bool) { return unwrap.As[T](e) }
