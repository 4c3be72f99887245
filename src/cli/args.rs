//! The flag splitter every subcommand's parser is built on.
//!
//! A subcommand's flags are declared once: in its synopsis in the usage
//! text, which is what `dbr help` prints. There `[--name]` is a switch
//! and `[--name VALUE]` a flag that takes a value. [`Args::split`] reads
//! the arguments against that synopsis and reports the first mistake in
//! argument order: an undeclared flag, a repeated flag, or a value flag
//! followed by nothing or by another flag. Help and parser cannot
//! disagree about a flag.

use std::str::FromStr;

/// A subcommand's arguments, split by its flag grammar.
pub(super) struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` of `command` (`route`, `trace links`, …) by the
    /// flags its synopsis in `usage` declares.
    pub(super) fn split(args: &[&'a str], usage: &str, command: &str) -> Result<Self, String> {
        let grammar = grammar(usage, command);
        let mut positional = Vec::new();
        let mut flags: Vec<(&'a str, Option<&'a str>)> = Vec::new();
        let mut it = args.iter().copied();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                positional.push(arg);
                continue;
            }
            let takes_value =
                takes_value(&grammar, arg).ok_or_else(|| format!("unexpected flag {arg}"))?;
            if flags.iter().any(|&(name, _)| name == arg) {
                return Err(format!("flag {arg} given more than once"));
            }
            let value = if takes_value {
                match it.next() {
                    Some(value) if !value.starts_with("--") => Some(value),
                    _ => return Err(format!("flag {arg} needs a value")),
                }
            } else {
                None
            };
            flags.push((arg, value));
        }
        Ok(Self { positional, flags })
    }

    /// Exactly `N` positional arguments, or an error naming `usage`.
    pub(super) fn positional<const N: usize>(&self, usage: &str) -> Result<[&'a str; N], String> {
        self.positional.as_slice().try_into().map_err(|_| {
            format!(
                "expected {usage}, got {} positional arguments",
                self.positional.len()
            )
        })
    }

    /// Whether the switch `name` was given.
    pub(super) fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|&(n, _)| n == name)
    }

    /// The value of flag `name`, if given.
    pub(super) fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(n, _)| n == name)
            .and_then(|&(_, v)| v)
    }

    /// The value of flag `name` as an owned string, if given.
    pub(super) fn string(&self, name: &str) -> Option<String> {
        self.value(name).map(String::from)
    }

    /// The value of flag `name` read by `parse`, if given.
    pub(super) fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(name).map(parse).transpose()
    }

    /// The value of flag `name` read as a number, if given; `bad NAME
    /// 'VALUE'` when it is not one.
    pub(super) fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parsed(name, |v| number(v, &name[2..]))
    }

    /// Like [`num`](Self::num), but `0` is an error too.
    pub(super) fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        match self.num(name)? {
            Some(0) => Err(format!("bad {} '0' (need >= 1)", &name[2..])),
            n => Ok(n),
        }
    }
}

/// The flags the synopsis of `command` in `usage` declares, each with
/// whether it takes a value: the `--` words of the synopsis lines that
/// start `dbr COMMAND`, continuation lines included.
pub(super) fn grammar<'u>(usage: &'u str, command: &str) -> Vec<(&'u str, bool)> {
    let synopsis = usage
        .lines()
        .skip_while(|line| *line != "USAGE:")
        .skip(1)
        .take_while(|line| !line.is_empty());
    let mut ours = false;
    let mut flags = Vec::new();
    for line in synopsis {
        if let Some(entry) = line.trim_start().strip_prefix("dbr ") {
            ours = entry
                .strip_prefix(command)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '));
        }
        if !ours {
            continue;
        }
        // A flag's value, if it takes one, is the next word of its group.
        for group in line.split(['[', ']']) {
            let mut words = group.split_whitespace().peekable();
            while let Some(word) = words.next() {
                if word.starts_with("--") {
                    flags.push((word, words.peek().is_some()));
                }
            }
        }
    }
    flags
}

/// Whether `flag` takes a value under `grammar`; `None` when the
/// grammar does not declare it.
pub(super) fn takes_value(grammar: &[(&str, bool)], flag: &str) -> Option<bool> {
    grammar
        .iter()
        .find(|&&(name, _)| name == flag)
        .map(|&(_, value)| value)
}

/// Reads `s` as a number; `bad WHAT 'S'` when it is not one.
pub(super) fn number<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} '{s}'"))
}
