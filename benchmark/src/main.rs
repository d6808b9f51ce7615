fn main() -> std::process::ExitCode {
    ezflow_benchmark::cli::main()
}
