//! An interactive REPL for the PFI scripting language (the Tcl subset the
//! fault-injection filters are written in).
//!
//! ```text
//! cargo run --example script_repl
//! echo 'expr {6 * 7}' | cargo run --example script_repl
//! ```

use pfi::script::{Interp, NoHost};
use std::io::{self, BufRead, Write};

fn main() {
    let mut interp = Interp::new();
    interp.set_step_budget(1_000_000);
    let stdin = io::stdin();
    let interactive = atty_stdin();
    if interactive {
        println!("pfi-script REPL — a Tcl subset. Ctrl-D to exit.");
        println!("try: proc fib {{n}} {{ if {{$n < 2}} {{ return $n }}; expr {{[fib [expr {{$n-1}}]] + [fib [expr {{$n-2}}]]}} }}");
    }
    let mut pending = String::new();
    loop {
        if interactive {
            print!("{}", if pending.is_empty() { "% " } else { "> " });
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        pending.push_str(&line);
        // Continue reading while braces are unbalanced (multi-line procs).
        if open_braces(&pending) > 0 {
            continue;
        }
        let src = std::mem::take(&mut pending);
        if src.trim().is_empty() {
            continue;
        }
        match interp.eval(&mut NoHost, &src) {
            Ok(result) => {
                let out = interp.take_output();
                if !out.is_empty() {
                    print!("{out}");
                }
                if !result.is_empty() {
                    println!("{result}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

fn open_braces(s: &str) -> i64 {
    let mut depth = 0i64;
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                let _ = chars.next();
            }
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Crude interactivity check without extra dependencies: assume piped input
/// when the `PFI_REPL_BATCH` variable is set, interactive otherwise.
fn atty_stdin() -> bool {
    std::env::var_os("PFI_REPL_BATCH").is_none()
}
