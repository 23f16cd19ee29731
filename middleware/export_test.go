package middleware

// BaseWorkNs returns the route's unscaled self-time sum: the request
// latency floor with instrumentation fully deselected and multiplier 1.
func (s *Service) BaseWorkNs(routeName string) int64 {
	var ns int64
	if rt := s.routes[routeName]; rt != nil {
		for _, st := range rt.steps {
			if st.kind == stepWork {
				ns += st.ns
			}
		}
	}
	return ns
}
