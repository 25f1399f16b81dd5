"""One module per `sybilcost` subcommand, each with `run(args) -> int`.

`cli.dispatch` imports only the module its command names (`verify-all` is
`verify_all`), so a process compiles no other command's code.  A handler
reaches the shared helpers as attributes of `cli` at call time.
"""
