package snapshot

// Manifests returns every registered manifest in registration order.
func Manifests() []Manifest { return registry }
