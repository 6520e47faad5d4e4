// Package escapevc implements the EscapeVC baseline [Duato'93]: within
// every virtual network, VC 0 is an escape channel restricted to a
// deadlock-free routing function (West-first, per Table II) while the
// remaining VCs route fully adaptively. A blocked packet can always fall
// back to the escape channel, so network-level deadlock cannot form;
// protocol-level deadlock is avoided by the six virtual networks. The
// scheme needs no controller: the escape channel is pure routing and VC
// policy.
package escapevc

import (
	"repro/internal/router"
	"repro/internal/routing"
)

// Config returns the EscapeVC router configuration: 6 VNs, vcs VCs per
// VN with VC0 as the West-first escape channel. vcs must be at least 2
// (an escape channel plus at least one adaptive channel).
func Config(vcs int) router.Config {
	if vcs < 2 {
		panic("escapevc: need at least 2 VCs (escape + adaptive)")
	}
	return router.TableII(vcs, true, routing.WestFirst, routing.FullyAdaptive)
}
