// Package ohttp declares Oblivious HTTP in the shape of RFC 9458,
// which the paper (§3.2.5) describes as "a generalization of ODoH":
// clients HPKE-encapsulate a binary HTTP request to a Gateway's
// published key and send it via a Relay. The relay learns the client's
// network identity but not the request; the gateway learns the request
// but sees only the relay.
//
// The package holds the declaration only. The static schema catalog
// (internal/schema/catalog) derives OHTTP's knowledge tuples and
// coalition closure from StaticSchema; no experiment runs an OHTTP
// stack. ODoH (internal/odoh) is the running instance of the same
// shape, and PPM's OHTTP-relayed uploads (internal/ppm) are modelled by
// naming the relay as the uploader.
package ohttp

import (
	"decoupling/internal/core"
	"decoupling/internal/schema"
)

// Role names in the declaration.
const (
	RelayName   = "Relay"
	GatewayName = "Gateway"
)

// StaticSchema declares RFC 9458 Oblivious HTTP, the paper's §3.2.5
// "generalization of ODoH": the relay reads the client's address and
// forwards an HPKE envelope it cannot open; the gateway opens it and
// reads the binary HTTP request, seeing only the relay's address.
func StaticSchema() *schema.Scenario {
	return &schema.Scenario{
		Name:    "ohttp",
		System:  "Oblivious HTTP",
		Section: "3.2.5",
		Doc:     "Oblivious HTTP: binary HTTP requests HPKE-sealed to the gateway's key config, relayed by a party that sees identity but only ciphertext.",
		Axes:    []schema.Axis{{Kind: core.Identity}, {Kind: core.Data}},
		Messages: []schema.Message{
			{
				Name: "ohttp_request",
				Doc:  "encapsulated request as sent by the client",
				Fields: []schema.Field{
					{Name: "client_addr", Label: schema.Identity},
					{Name: "sealed_request", Label: schema.Opaque, Encapsulates: "ohttp_bhttp_request", Openers: []string{GatewayName}},
				},
			},
			{
				Name: "ohttp_forward",
				Doc:  "the relay's forward of the same envelope",
				Fields: []schema.Field{
					{Name: "relay_addr", Label: schema.Routing},
					{Name: "sealed_request", Label: schema.Opaque, Encapsulates: "ohttp_bhttp_request", Openers: []string{GatewayName}},
				},
			},
			{
				Name: "ohttp_bhttp_request",
				Doc:  "the decapsulated binary HTTP request",
				Fields: []schema.Field{
					{Name: "path", Label: schema.Query},
					{Name: "body", Label: schema.Content},
				},
			},
			{
				Name: "ohttp_response",
				Fields: []schema.Field{
					{Name: "sealed_response", Label: schema.Opaque, Encapsulates: "ohttp_bhttp_response", Openers: []string{"Client"}},
				},
			},
			{
				Name: "ohttp_bhttp_response",
				Fields: []schema.Field{
					{Name: "body", Label: schema.Content},
				},
			},
		},
		Roles: []schema.Role{
			{
				Name: "Client", User: true,
				Knows: core.Tuple{core.SensID(), core.SensData()},
				Sends: []schema.Use{{Message: "ohttp_request", Fields: []string{"client_addr"}}},
				Receives: []schema.Use{
					{Message: "ohttp_response", Fields: []string{"sealed_response"}},
					{Message: "ohttp_bhttp_response", Fields: []string{"body"}},
				},
			},
			{
				Name: RelayName,
				Receives: []schema.Use{
					{Message: "ohttp_request", Fields: []string{"client_addr"}},
					{Message: "ohttp_response"},
				},
				Sends: []schema.Use{
					{Message: "ohttp_forward", Fields: []string{"relay_addr"}},
					{Message: "ohttp_response"},
				},
			},
			{
				Name: GatewayName,
				Receives: []schema.Use{
					{Message: "ohttp_forward", Fields: []string{"relay_addr", "sealed_request"}},
					{Message: "ohttp_bhttp_request", Fields: []string{"path", "body"}},
				},
				Sends: []schema.Use{{Message: "ohttp_response"}},
			},
		},
		Flows: []schema.Flow{
			{From: "Client", To: RelayName, Message: "ohttp_request", Handle: "client-leg"},
			{From: RelayName, To: GatewayName, Message: "ohttp_forward", Handle: "gateway-leg"},
			{From: GatewayName, To: RelayName, Message: "ohttp_response", Handle: "gateway-leg"},
			{From: RelayName, To: "Client", Message: "ohttp_response", Handle: "client-leg"},
		},
	}
}
