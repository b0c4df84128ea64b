package server

import "pmnet/internal/unwrap"

// As reports whether h — or any handler it decorates, found by walking the
// `Unwrap() Handler` chain — provides capability T, returning the outermost
// provider. Use this instead of a direct type assertion whenever probing a
// configured handler for an optional interface (crash hooks, verification),
// so interposed wrappers like the checker's recorder stay transparent.
func As[T any](h Handler) (T, bool) { return unwrap.As[T](h) }
