package someip

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// ServiceKey identifies a service instance.
type ServiceKey struct {
	Service  ServiceID
	Instance InstanceID
}

func (k ServiceKey) String() string {
	return fmt.Sprintf("%04x.%04x", uint16(k.Service), uint16(k.Instance))
}

// RemoteService describes a remote service instance, either discovered
// through SD (simulated substrate) or statically configured (any
// substrate; see ara.Runtime.StaticProxy).
type RemoteService struct {
	Key      ServiceKey
	Major    uint8
	Minor    uint32
	Endpoint Addr // the service's application endpoint
	SDAddr   Addr // the offering agent's SD endpoint (nil when static)
}

// SDGroup is the simulated stand-in for the SOME/IP-SD multicast address
// (224.244.224.245:30490 in real deployments). Agents do not join it as
// a flat group: SD traffic is routed by interest — offers travel on the
// consumer topic of their service key and finds on the provider topic —
// so control-plane fan-out grows with actual interest, not with the
// square of the platform count.
var SDGroup = simnet.Addr{Host: simnet.MulticastBase + 1, Port: SDPort}

// consumerTopic is the simnet topic carrying offers/stop-offers for a
// service key; consumers (Find/Monitor/Interest) subscribe to it.
func consumerTopic(k ServiceKey) uint64 {
	return uint64(uint16(k.Service))<<16 | uint64(uint16(k.Instance))
}

// providerTopic is the simnet topic carrying finds for a service key;
// providers (Offer) subscribe to it.
func providerTopic(k ServiceKey) uint64 {
	return 1<<32 | consumerTopic(k)
}

// AgentConfig tunes SD timing.
type AgentConfig struct {
	// CyclicOfferPeriod between repeated offers (default 1s).
	CyclicOfferPeriod logical.Duration
	// TTL announced in offers and subscriptions (default 3s; SD wire
	// granularity is seconds, rounded up).
	TTL logical.Duration
}

// Agent implements the SOME/IP service-discovery state machine for one
// application process: offering local services, discovering remote ones,
// and managing eventgroup subscriptions in both roles.
type Agent struct {
	k       *des.Kernel
	conn    *Conn
	group   simnet.Addr
	session SessionID
	cfg     AgentConfig

	offers map[ServiceKey]*localOffer
	remote map[ServiceKey]*remoteEntry
	watch  map[ServiceKey][]func(RemoteService)
	// interests tracks the service keys whose consumer topic this agent
	// has joined (Interest); offers for other keys never reach it.
	interests map[ServiceKey]bool
	// monitors are persistent availability watchers (Monitor): unlike
	// watch entries they survive firing and also observe service loss.
	monitors map[ServiceKey][]monitor
	pending  map[subKey][]func(ok bool)
	active   map[subKey]bool // client-side subscriptions to keep renewed

	// onSubscribe notifies the skeleton layer of a new/renewed remote
	// subscriber for (service, eventgroup).
	onSubscribe func(key ServiceKey, eventgroup uint16, subscriber simnet.Addr)
}

type localOffer struct {
	key      ServiceKey
	major    uint8
	minor    uint32
	endpoint simnet.Addr
	stopped  bool
	subs     map[uint16][]*subscriber // eventgroup -> subscribers
}

type subscriber struct {
	addr   simnet.Addr
	expiry *des.Event
}

type remoteEntry struct {
	svc    RemoteService
	expiry *des.Event
}

// monitor is one persistent availability watcher.
type monitor struct {
	up   func(RemoteService)
	down func()
}

type subKey struct {
	key        ServiceKey
	eventgroup uint16
}

// NewAgent creates an SD agent for an application on the given host. It
// binds an SD endpoint; SD topic subscriptions are registered lazily as
// the agent offers services (provider topics) or declares interest in
// them (consumer topics, implicit in Find/Monitor).
func NewAgent(host *simnet.Host, cfg AgentConfig) (*Agent, error) {
	if cfg.CyclicOfferPeriod <= 0 {
		cfg.CyclicOfferPeriod = logical.Second
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * logical.Second
	}
	ep, err := host.Bind(0)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		k:         host.Net().Kernel(),
		conn:      NewConn(ep, false),
		group:     SDGroup,
		cfg:       cfg,
		offers:    map[ServiceKey]*localOffer{},
		remote:    map[ServiceKey]*remoteEntry{},
		watch:     map[ServiceKey][]func(RemoteService){},
		interests: map[ServiceKey]bool{},
		monitors:  map[ServiceKey][]monitor{},
		pending:   map[subKey][]func(ok bool){},
		active:    map[subKey]bool{},
	}
	a.conn.OnMessage(a.handle)
	return a, nil
}

// Interest declares this agent's interest in a service key: offers and
// stop-offers for it are delivered to the agent from now on (joining
// the key's consumer topic, idempotently). Find and Monitor declare
// interest implicitly; call Interest directly to passively cache offers
// for later Lookup without issuing a find. Join order — fixed by
// program structure — is the deterministic fan-out order, identical in
// single-kernel and federated execution.
func (a *Agent) Interest(key ServiceKey) {
	if a.interests[key] {
		return
	}
	a.interests[key] = true
	net := a.conn.Endpoint().Host().Net()
	net.JoinTopic(a.group, consumerTopic(key), a.conn.Endpoint())
}

// ttlSeconds converts the configured TTL to SD wire seconds (min 1).
func (a *Agent) ttlSeconds() uint32 {
	s := uint32(a.cfg.TTL / logical.Second)
	if logical.Duration(s)*logical.Second < a.cfg.TTL || s == 0 {
		s++
	}
	return s
}

// Addr returns the agent's SD endpoint address.
func (a *Agent) Addr() simnet.Addr { return a.conn.Addr() }

// OnSubscribe installs the server-side subscription callback.
func (a *Agent) OnSubscribe(fn func(key ServiceKey, eventgroup uint16, subscriber simnet.Addr)) {
	a.onSubscribe = fn
}

func (a *Agent) nextSession() SessionID {
	a.session++
	if a.session == 0 {
		a.session = 1
	}
	return a.session
}

func (a *Agent) send(dst Addr, entries []Entry) {
	a.conn.Send(dst, NewSDMessage(a.nextSession(), entries))
}

// sendTopic multicasts SD entries on an interest topic, reaching only
// the endpoints subscribed to it.
func (a *Agent) sendTopic(topic uint64, entries []Entry) {
	m := NewSDMessage(a.nextSession(), entries)
	a.conn.Endpoint().SendTopic(a.group, topic, m.Marshal())
}

// Offer announces a local service instance and keeps re-announcing it
// cyclically until StopOffer. The agent joins the key's provider topic
// (so finds reach it) and announces on the consumer topic (so only
// interested agents receive the offer).
func (a *Agent) Offer(key ServiceKey, major uint8, minor uint32, endpoint simnet.Addr) {
	off := &localOffer{
		key: key, major: major, minor: minor, endpoint: endpoint,
		subs: map[uint16][]*subscriber{},
	}
	a.offers[key] = off
	net := a.conn.Endpoint().Host().Net()
	net.JoinTopic(a.group, providerTopic(key), a.conn.Endpoint())
	a.announceTopic(off)
	a.scheduleCyclic(off)
}

func (a *Agent) offerEntry(off *localOffer, ttl uint32) Entry {
	return Entry{
		Type: OfferService, Service: off.key.Service, Instance: off.key.Instance,
		Major: off.major, Minor: off.minor, TTL: ttl,
		Options: []Option{{Type: IPv4EndpointOption, Addr: off.endpoint, Proto: UDPProto}},
	}
}

// announce unicasts the current offer to one requester (find replies).
func (a *Agent) announce(off *localOffer, dst Addr) {
	a.send(dst, []Entry{a.offerEntry(off, a.ttlSeconds())})
}

// announceTopic multicasts the current offer on the key's consumer
// topic, reaching exactly the agents that declared interest. With no
// interested agent (clients on static proxies, say) nobody receives the
// offer, so it is not encoded; the send still takes a session ID and
// still counts toward the control plane, keeping both identical to an
// encoded send.
func (a *Agent) announceTopic(off *localOffer) {
	topic := consumerTopic(off.key)
	ep := a.conn.Endpoint()
	if ep.Host().Net().TopicMembers(a.group, topic) == 0 {
		a.nextSession()
		ep.SendTopic(a.group, topic, nil)
		return
	}
	a.sendTopic(topic, []Entry{a.offerEntry(off, a.ttlSeconds())})
}

func (a *Agent) scheduleCyclic(off *localOffer) {
	a.k.AfterDaemon(a.cfg.CyclicOfferPeriod, func() {
		if off.stopped {
			return
		}
		a.announceTopic(off)
		a.scheduleCyclic(off)
	})
}

// StopOffer withdraws a local service: it leaves the provider topic and
// multicasts a TTL-0 offer on the consumer topic.
func (a *Agent) StopOffer(key ServiceKey) {
	off, ok := a.offers[key]
	if !ok {
		return
	}
	off.stopped = true
	delete(a.offers, key)
	net := a.conn.Endpoint().Host().Net()
	net.LeaveTopic(a.group, providerTopic(key), a.conn.Endpoint())
	a.sendTopic(consumerTopic(key), []Entry{a.offerEntry(off, 0)})
}

// Find starts discovery for a service instance, declaring interest in
// it (see Interest). The callback fires (as a kernel event) when the
// service is known — immediately if already cached. It fires again on
// re-discovery after expiry. The find itself travels on the key's
// provider topic, reaching only agents that offer the service.
func (a *Agent) Find(key ServiceKey, cb func(RemoteService)) {
	a.Interest(key)
	if r, ok := a.remote[key]; ok {
		svc := r.svc
		a.k.After(0, func() { cb(svc) })
		return
	}
	a.watch[key] = append(a.watch[key], cb)
	a.sendTopic(providerTopic(key), []Entry{{
		Type: FindService, Service: key.Service, Instance: key.Instance,
		Major: 0xff, Minor: 0xffffffff, TTL: a.ttlSeconds(),
	}})
}

// Monitor registers a persistent availability watcher for a service
// instance: up fires (as a kernel event) on every discovery and
// re-discovery whose endpoint differs from the previously known one —
// including the initial one if the service is already cached — and down
// fires when the cached offer expires (TTL) or is withdrawn
// (stop-offer). A crashed provider sends no stop-offer, so its loss is
// observed through TTL expiry; when it restarts and re-offers, up fires
// again and the client can re-bind deterministically. Monitor declares
// interest in the key (see Interest) and sends a find on its provider
// topic so an already-running provider answers immediately.
func (a *Agent) Monitor(key ServiceKey, up func(RemoteService), down func()) {
	a.Interest(key)
	a.monitors[key] = append(a.monitors[key], monitor{up: up, down: down})
	if r, ok := a.remote[key]; ok {
		svc := r.svc
		if up != nil {
			a.k.After(0, func() { up(svc) })
		}
		return
	}
	a.sendTopic(providerTopic(key), []Entry{{
		Type: FindService, Service: key.Service, Instance: key.Instance,
		Major: 0xff, Minor: 0xffffffff, TTL: a.ttlSeconds(),
	}})
}

// lost drops the cached remote entry and notifies monitors. reason is
// either an expiry or an explicit stop-offer.
func (a *Agent) lost(key ServiceKey) {
	if _, ok := a.remote[key]; !ok {
		return
	}
	delete(a.remote, key)
	for _, m := range a.monitors[key] {
		if m.down != nil {
			m.down()
		}
	}
}

// Lookup returns the cached remote service, if discovered.
func (a *Agent) Lookup(key ServiceKey) (RemoteService, bool) {
	r, ok := a.remote[key]
	if !ok {
		return RemoteService{}, false
	}
	return r.svc, true
}

// Subscribe requests an eventgroup subscription from the (already
// discovered) remote service, delivering notifications to notifyEndpoint.
// ack fires with the subscription result. The subscription is renewed
// cyclically until Unsubscribe.
func (a *Agent) Subscribe(key ServiceKey, eventgroup uint16, notifyEndpoint simnet.Addr, ack func(ok bool)) {
	r, ok := a.remote[key]
	if !ok {
		if ack != nil {
			a.k.After(0, func() { ack(false) })
		}
		return
	}
	sk := subKey{key, eventgroup}
	if ack != nil {
		a.pending[sk] = append(a.pending[sk], ack)
	}
	a.active[sk] = true
	a.send(r.svc.SDAddr, []Entry{{
		Type: SubscribeEventgroup, Service: key.Service, Instance: key.Instance,
		Major: r.svc.Major, TTL: a.ttlSeconds(), Eventgroup: eventgroup,
		Options: []Option{{Type: IPv4EndpointOption, Addr: notifyEndpoint, Proto: UDPProto}},
	}})
	// Renew at 2/3 of the TTL while the subscription stays active.
	a.k.AfterDaemon(a.cfg.TTL*2/3, func() {
		if _, still := a.remote[key]; still && a.active[sk] {
			a.Subscribe(key, eventgroup, notifyEndpoint, nil)
		}
	})
}

// Unsubscribe withdraws an eventgroup subscription.
func (a *Agent) Unsubscribe(key ServiceKey, eventgroup uint16, notifyEndpoint simnet.Addr) {
	delete(a.active, subKey{key, eventgroup})
	r, ok := a.remote[key]
	if !ok {
		return
	}
	a.send(r.svc.SDAddr, []Entry{{
		Type: SubscribeEventgroup, Service: key.Service, Instance: key.Instance,
		Major: r.svc.Major, TTL: 0, Eventgroup: eventgroup,
		Options: []Option{{Type: IPv4EndpointOption, Addr: notifyEndpoint, Proto: UDPProto}},
	}})
}

// Subscribers returns the current subscriber endpoints for a local
// service's eventgroup, in subscription order.
func (a *Agent) Subscribers(key ServiceKey, eventgroup uint16) []simnet.Addr {
	off, ok := a.offers[key]
	if !ok {
		return nil
	}
	subs := off.subs[eventgroup]
	addrs := make([]simnet.Addr, len(subs))
	for i, s := range subs {
		addrs[i] = s.addr
	}
	return addrs
}

func (a *Agent) handle(src Addr, m *Message) {
	if !m.IsSD() {
		return
	}
	entries, err := UnmarshalSD(m.Payload)
	if err != nil {
		return
	}
	for _, e := range entries {
		switch e.Type {
		case FindService:
			a.handleFind(src, e)
		case OfferService:
			a.handleOffer(src, e)
		case SubscribeEventgroup:
			a.handleSubscribe(src, e)
		case SubscribeEventgroupAck:
			a.handleSubscribeAck(e)
		}
	}
}

func (a *Agent) handleFind(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	if off, ok := a.offers[key]; ok {
		// Unicast offer straight back to the requester.
		a.announce(off, src)
	}
}

func (a *Agent) handleOffer(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	if e.TTL == 0 {
		if r, ok := a.remote[key]; ok {
			if r.expiry != nil {
				r.expiry.Cancel()
			}
			a.lost(key)
		}
		return
	}
	if len(e.Options) == 0 || e.Options[0].Type != IPv4EndpointOption {
		return
	}
	svc := RemoteService{
		Key: key, Major: e.Major, Minor: e.Minor,
		Endpoint: e.Options[0].Addr, SDAddr: src,
	}
	r, existed := a.remote[key]
	if existed && r.expiry != nil {
		r.expiry.Cancel()
	}
	entry := &remoteEntry{svc: svc}
	ttl := logical.Duration(e.TTL) * logical.Second
	entry.expiry = a.k.AfterDaemon(ttl, func() { a.lost(key) })
	a.remote[key] = entry
	if ws := a.watch[key]; len(ws) > 0 {
		delete(a.watch, key)
		for _, w := range ws {
			w(svc)
		}
	}
	// Monitors see transitions only: a fresh discovery, or a re-offer
	// from a different endpoint (restart); cyclic refreshes are silent.
	if !existed || r.svc.Endpoint != svc.Endpoint || r.svc.SDAddr != svc.SDAddr {
		for _, m := range a.monitors[key] {
			if m.up != nil {
				m.up(svc)
			}
		}
	}
}

func (a *Agent) handleSubscribe(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	off, ok := a.offers[key]
	if len(e.Options) == 0 || e.Options[0].Type != IPv4EndpointOption {
		return
	}
	subAddr := e.Options[0].Addr
	if !ok {
		// NACK: ack entry with TTL 0.
		a.send(src, []Entry{{
			Type: SubscribeEventgroupAck, Service: e.Service, Instance: e.Instance,
			Major: e.Major, TTL: 0, Eventgroup: e.Eventgroup,
		}})
		return
	}
	if e.TTL == 0 { // unsubscribe
		subs := off.subs[e.Eventgroup]
		for i, s := range subs {
			if s.addr == subAddr {
				if s.expiry != nil {
					s.expiry.Cancel()
				}
				off.subs[e.Eventgroup] = append(subs[:i:i], subs[i+1:]...)
				break
			}
		}
		return
	}
	ttl := logical.Duration(e.TTL) * logical.Second
	found := false
	for _, s := range off.subs[e.Eventgroup] {
		if s.addr == subAddr {
			if s.expiry != nil {
				s.expiry.Cancel()
			}
			s.expiry = a.expireSub(off, e.Eventgroup, subAddr, ttl)
			found = true
			break
		}
	}
	if !found {
		s := &subscriber{addr: subAddr}
		s.expiry = a.expireSub(off, e.Eventgroup, subAddr, ttl)
		off.subs[e.Eventgroup] = append(off.subs[e.Eventgroup], s)
	}
	a.send(src, []Entry{{
		Type: SubscribeEventgroupAck, Service: e.Service, Instance: e.Instance,
		Major: e.Major, TTL: e.TTL, Eventgroup: e.Eventgroup,
	}})
	if a.onSubscribe != nil {
		a.onSubscribe(key, e.Eventgroup, subAddr)
	}
}

func (a *Agent) expireSub(off *localOffer, eventgroup uint16, addr simnet.Addr, ttl logical.Duration) *des.Event {
	return a.k.AfterDaemon(ttl, func() {
		subs := off.subs[eventgroup]
		for i, s := range subs {
			if s.addr == addr {
				off.subs[eventgroup] = append(subs[:i:i], subs[i+1:]...)
				return
			}
		}
	})
}

func (a *Agent) handleSubscribeAck(e Entry) {
	sk := subKey{ServiceKey{e.Service, e.Instance}, e.Eventgroup}
	cbs := a.pending[sk]
	if len(cbs) == 0 {
		return
	}
	delete(a.pending, sk)
	ok := e.TTL > 0
	for _, cb := range cbs {
		cb(ok)
	}
}
