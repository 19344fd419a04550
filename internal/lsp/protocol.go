package lsp

// The subset of LSP 3.17 structures the server speaks. Positions are
// zero-based (line, character); the server counts characters in bytes,
// which matches UTF-16 code units for the ASCII sources VASS works with.

// Position is a zero-based line/character location in a document.
type Position struct {
	Line      int `json:"line"`
	Character int `json:"character"`
}

// Range is a half-open [Start, End) document range.
type Range struct {
	Start Position `json:"start"`
	End   Position `json:"end"`
}

// Diagnostic is one published finding.
type Diagnostic struct {
	Range    Range  `json:"range"`
	Severity int    `json:"severity,omitempty"`
	Code     string `json:"code,omitempty"`
	Source   string `json:"source,omitempty"`
	Message  string `json:"message"`
}

// LSP diagnostic severities.
const (
	severityError   = 1
	severityWarning = 2
	severityInfo    = 3
)

type initializeParams struct {
	RootURI string `json:"rootUri"`
}

type initializeResult struct {
	Capabilities serverCapabilities `json:"capabilities"`
	ServerInfo   serverInfo         `json:"serverInfo"`
}

type serverInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

type serverCapabilities struct {
	// 1 = full-document sync: the client resends the whole text on change.
	TextDocumentSync       int  `json:"textDocumentSync"`
	HoverProvider          bool `json:"hoverProvider"`
	DocumentSymbolProvider bool `json:"documentSymbolProvider"`
}

type textDocumentItem struct {
	URI  string `json:"uri"`
	Text string `json:"text"`
}

type textDocumentIdentifier struct {
	URI string `json:"uri"`
}

type didOpenParams struct {
	TextDocument textDocumentItem `json:"textDocument"`
}

type didChangeParams struct {
	TextDocument   textDocumentIdentifier `json:"textDocument"`
	ContentChanges []contentChangeEvent   `json:"contentChanges"`
}

type contentChangeEvent struct {
	// Full sync: Text is the complete new document content.
	Text string `json:"text"`
}

type didCloseParams struct {
	TextDocument textDocumentIdentifier `json:"textDocument"`
}

type publishDiagnosticsParams struct {
	URI         string       `json:"uri"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

type hoverParams struct {
	TextDocument textDocumentIdentifier `json:"textDocument"`
	Position     Position               `json:"position"`
}

type hoverResult struct {
	Contents markupContent `json:"contents"`
	Range    *Range        `json:"range,omitempty"`
}

type markupContent struct {
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

type documentSymbolParams struct {
	TextDocument textDocumentIdentifier `json:"textDocument"`
}

// DocumentSymbol is one hierarchical outline entry.
type DocumentSymbol struct {
	Name           string           `json:"name"`
	Detail         string           `json:"detail,omitempty"`
	Kind           int              `json:"kind"`
	Range          Range            `json:"range"`
	SelectionRange Range            `json:"selectionRange"`
	Children       []DocumentSymbol `json:"children,omitempty"`
}

// LSP symbol kinds the server uses.
const (
	symbolKindModule    = 2  // package
	symbolKindClass     = 5  // entity
	symbolKindInterface = 11 // architecture
	symbolKindFunction  = 12
	symbolKindVariable  = 13
	symbolKindConstant  = 14
)
