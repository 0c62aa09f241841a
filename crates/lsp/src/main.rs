//! `sial-lsp` — stdio entry point: Content-Length framing around
//! [`sial_lsp::Server`]. Point your editor's LSP client at this binary for
//! live SIAL diagnostics, go-to-definition, and hover.

use std::io::{self, BufReader, Write};

fn main() -> io::Result<()> {
    let stdin = io::stdin();
    let mut reader = BufReader::new(stdin.lock());
    let stdout = io::stdout();
    let mut writer = stdout.lock();
    let mut server = sial_lsp::Server::new();
    while let Some(msg) = sial_lsp::read_message(&mut reader)? {
        for out in server.handle(&msg) {
            sial_lsp::write_message(&mut writer, &out.to_string())?;
        }
        if server.exited {
            break;
        }
    }
    writer.flush()
}
